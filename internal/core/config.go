// Package core implements P3Q, the fully decentralized gossip-based
// protocol for personalized top-k query processing of Bai, Bertier,
// Guerraoui, Kermarrec and Leroy, "Gossiping Personalized Queries"
// (EDBT 2010).
//
// Every user runs a node that maintains, besides her own tagging profile:
//
//   - a personal network: the s most similar users found so far, with the
//     profiles of the c most similar ones stored locally (§2.1);
//   - a random view of r uniformly sampled peers keeping the overlay
//     connected (bottom gossip layer).
//
// The protocol is bimodal (§2.2): the lazy mode runs periodically at low
// frequency and maintains the personal networks through a 3-step profile
// exchange (Algorithm 1); the eager mode runs on demand, gossiping queries
// along personal networks with remaining-list splitting (Algorithms 2-3)
// while piggybacking the same maintenance, and the querier merges the
// asynchronously arriving partial result lists with an incremental NRA
// (Algorithm 4, package topk).
//
// The Engine type drives a population of nodes cycle by cycle over the sim
// substrate, reproducing PeerSim's cycle-based model used in the paper's
// evaluation.
package core

import (
	"runtime"
	"time"

	"p3q/internal/bloom"
	"p3q/internal/sim"
	"p3q/internal/tagging"
)

// Config holds the protocol and simulation parameters. The defaults follow
// §3.1.2 of the paper scaled down (s=1000 in the paper; experiments here
// default to smaller populations, and every parameter can be raised back to
// paper scale).
type Config struct {
	// S is the personal network size: the number of similar neighbours a
	// user tracks. Paper: 1000.
	S int
	// C is the number of most-similar neighbours whose profiles are stored
	// locally. Paper: 10..1000 depending on scenario. CAssign overrides C
	// per user when non-nil (heterogeneous scenarios of Table 1).
	C       int
	CAssign []int
	// R is the random view size of the peer sampling layer. Paper: 10.
	R int
	// Alpha is the remaining-list split parameter of the eager mode: the
	// fraction of the (unresolved) remaining list sent back to the gossip
	// initiator. Paper: 0.5 is optimal (Theorem 2.2).
	Alpha float64
	// K is the number of results a query returns. Paper: 10.
	K int
	// MaxDigestsPerGossip bounds the profile digests advertised per
	// top-layer exchange. Paper: 50.
	MaxDigestsPerGossip int
	// BloomBits and BloomHashes set the digest geometry. Paper: 20 Kbit.
	BloomBits   int
	BloomHashes int
	// MaxProbes bounds the failed contact attempts a node makes per cycle
	// before giving up (departed destinations, §3.4.2). The paper does not
	// specify a retry policy; 3 keeps stalls short without flooding.
	MaxProbes int
	// DisableEagerBias turns off the eager mode's preference for
	// remaining-list members that are also personal-network neighbours
	// (Algorithm 3 lines 4-6), selecting destinations uniformly from the
	// remaining list instead. Ablation knob; the paper's protocol keeps
	// the bias on.
	DisableEagerBias bool
	// Workers is the number of goroutines the engine uses for the parallel
	// phases of both modes. It sizes the planning pool — lazy cycles plan
	// partner selection, Bloom-digest filtering, common-item scoring and
	// random-view evaluation per online node; eager cycles plan destination
	// selection, remaining-list resolution, partial-list computation, the
	// α-split and the piggybacked maintenance exchange per (initiator,
	// query) gossip — and the commit phase's shard count: the population is
	// partitioned into Workers contiguous node index ranges, and one
	// committer per shard applies exactly its own nodes' intents in the
	// engine's canonical (cycle, pair, role) order. 0 (the default) means
	// runtime.GOMAXPROCS(0); 1 forces fully sequential execution. Shards
	// never share a node and per-shard traffic ledgers are merged in
	// canonical shard order, so every value of Workers produces
	// byte-for-byte identical personal networks, query results and traffic
	// counters.
	Workers int
	// Latency models the one-way delivery delay of every eager-mode query
	// message (forwarded lists, returned portions, partial results). Each
	// planned (initiator, query) gossip becomes timestamped delivery events
	// on the engine's virtual clock: branch hand-offs activate and partial
	// results count at their arrival time, a query settles the moment its
	// last delivery lands, and messages arriving at a departed node freeze
	// and are redelivered when it revives. nil (the default) means no
	// delay: every message arrives at the start of the cycle that sent it,
	// the paper's PeerSim-style round model, and no latency stream is
	// drawn — indistinguishable from sim.FixedLatency(0), checkpoints
	// included. With a positive delay, arrivals spread over the cycle
	// windows, queries can settle between cycle boundaries, and the
	// in-progress top-k estimate of an unfinished query reflects the
	// arrivals merged at the end of the last window (final results, time
	// stamps and traffic do not depend on when lists are merged).
	// Determinism is preserved: all latency randomness comes from
	// per-event split streams drawn in canonical order, so output is
	// byte-for-byte identical for every Workers value. See
	// sim.ParseLatency for the CLI spec syntax.
	Latency sim.LatencyModel
	// EagerPeriod is the virtual time one eager cycle occupies (the
	// paper's deployment assumption in §3.5: 5 seconds). It paces the
	// engine clock that latency-modelled deliveries are scheduled against
	// and that the per-query time-to-first-result / time-to-full-recall
	// metrics are measured on. 0 defaults to 5s.
	EagerPeriod time.Duration
	// LazyPeriod is the virtual time one lazy cycle occupies (§3.5: one
	// minute). 0 defaults to 60s.
	LazyPeriod time.Duration
	// StaticNetworks freezes personal-network membership: gossip still
	// refreshes the digests, scores and stored replicas of existing
	// neighbours, but never admits new ones. This is the §4 explicit
	// social network deployment ("equipping each P3Q user with a
	// pre-defined explicit network as input would be straightforward:
	// only the eager mode of P3Q would suffice") — pair it with
	// SeedExplicitNetworks. Leaving it false over a seeded explicit
	// network yields a hybrid that enriches declared friends with
	// implicit acquaintances.
	StaticNetworks bool
	// Seed feeds all randomness; identical seeds reproduce identical runs.
	Seed uint64
}

// DefaultConfig returns a laptop-scale configuration: s=100, c=10, the
// paper's digest geometry, view size and split parameter.
func DefaultConfig() Config {
	return Config{
		S:                   100,
		C:                   10,
		R:                   10,
		Alpha:               0.5,
		K:                   10,
		MaxDigestsPerGossip: 50,
		BloomBits:           bloom.DefaultBits,
		BloomHashes:         bloom.DefaultHashes,
		MaxProbes:           3,
		Seed:                1,
	}
}

// sanitize clamps nonsensical values so a zero-ish config still runs.
func (c Config) sanitize(users int) Config {
	if c.S < 1 {
		c.S = 1
	}
	if c.C < 0 {
		c.C = 0
	}
	if c.C > c.S {
		c.C = c.S
	}
	if c.R < 1 {
		c.R = 1
	}
	if c.Alpha < 0 {
		c.Alpha = 0
	}
	if c.Alpha > 1 {
		c.Alpha = 1
	}
	if c.K < 1 {
		c.K = 1
	}
	if c.MaxDigestsPerGossip < 1 {
		c.MaxDigestsPerGossip = 1
	}
	if c.BloomBits < 64 {
		c.BloomBits = bloom.DefaultBits
	}
	if c.BloomHashes < 1 {
		c.BloomHashes = bloom.DefaultHashes
	}
	if c.MaxProbes < 1 {
		c.MaxProbes = 1
	}
	if c.Workers < 1 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.EagerPeriod <= 0 {
		c.EagerPeriod = 5 * time.Second
	}
	if c.LazyPeriod <= 0 {
		c.LazyPeriod = time.Minute
	}
	if c.CAssign != nil && len(c.CAssign) != users {
		panic("core: CAssign length does not match the number of users")
	}
	return c
}

// capacityOf returns the storage capacity of user u under this config.
func (c Config) capacityOf(u tagging.UserID) int {
	if c.CAssign != nil {
		cap := c.CAssign[u]
		if cap > c.S {
			cap = c.S
		}
		return cap
	}
	return c.C
}
