// Package p3q is a from-scratch Go implementation of P3Q, the fully
// decentralized gossip-based protocol for personalized top-k query
// processing in collaborative tagging systems, by Bai, Bertier, Guerraoui,
// Kermarrec and Leroy ("Gossiping Personalized Queries", EDBT 2010).
//
// P3Q associates each user with implicit social acquaintances — users with
// similar tagging behaviour — discovered and maintained through a two-layer
// gossip protocol (the lazy mode), and processes top-k queries by gossiping
// them among those acquaintances, computing partial results collaboratively
// and refining them cycle by cycle at the querier with an incremental NRA
// (the eager mode).
//
// This root package is the stable public surface: it re-exports the
// engine, the workload substrate and the evaluation metrics. A minimal
// session looks like:
//
//	ds := p3q.GenerateTrace(p3q.DefaultTraceParams(1000))
//	nets := p3q.IdealNetworks(ds, 100)
//	cfg := p3q.DefaultConfig()
//	cfg.S, cfg.C = 100, 10
//	engine := p3q.NewEngine(ds, cfg)
//	engine.SeedIdealNetworks(nets) // or Bootstrap + RunLazy to converge
//	q, _ := p3q.QueryFor(ds, 42, 1)
//	run := engine.IssueQuery(q)
//	for !run.Done() {
//	    engine.EagerCycle()
//	    fmt.Println(run.Results()) // refined every cycle
//	}
//
// Both modes run multicore in both halves of a cycle: a lazy cycle plans
// every node's exchanges and an eager cycle plans every (initiator, query)
// gossip concurrently on Config.Workers goroutines, then the same number
// of shard committers apply the planned effects — the population is
// partitioned into Workers contiguous node index shards, and each
// committer applies exactly its own nodes' intents in a canonical order,
// with per-shard traffic ledgers merged canonically afterwards. Runs are
// byte-for-byte deterministic — identical personal networks, query
// results, reached-sets and traffic counters — for every worker count
// (and across repeated runs with the same seed). The contract is enforced
// statically as well as by tests: the determinism linter (internal/lint,
// run as `make lint`, i.e. `go run ./cmd/p3qlint ./...`) bans
// order-sensitive map iteration and host-clock and ambient-randomness use
// in the engine packages, enforces the plan/commit phase contract
// (//p3q:phase), requires checkpointed structs to be fully covered by the
// snapshot codec (//p3q:transient), keeps host-plane telemetry out of the
// simulation, flags dropped errors in the codecs and per-call allocations
// on //p3q:hotpath functions.
//
// Eager delivery is event-driven: forwarded lists, returned portions and
// partial results arrive as timestamped events on the engine's virtual
// clock (Engine.Now), and every run reports per-query
// QueryRun.TimeToFirstResult and QueryRun.TimeToFullRecall. By default
// messages take no time — every message of a cycle lands at the cycle's
// start, the paper's PeerSim round model. Setting Config.Latency to a
// LatencyModel (FixedLatency, UniformLatency, LogNormalLatency,
// GeoLatency, or a spec via ParseLatency) draws each arrival time from the
// model instead: partial results reach the querier mid-cycle (she merges
// them once per cycle window, Algorithm 4), queries can settle between
// cycle boundaries, and messages in flight toward a departed node freeze
// and are redelivered when it revives. Determinism is unaffected: output
// stays byte-for-byte identical for every Workers value, and a zero-delay
// model is the default, byte for byte.
//
// Queries survive querier churn: if the querier departs mid-query the run
// stalls (QueryRun.State reports QueryStalled, and the engine stops
// spending eager cycles on it) and resumes automatically when the querier
// revives, still reaching full recall.
//
// See ARCHITECTURE.md for the engine design and determinism contract, the
// examples directory for runnable scenarios, and internal/experiments for
// the harness reproducing every table and figure of the paper.
package p3q

import (
	"io"
	"time"

	"p3q/internal/baseline"
	"p3q/internal/core"
	"p3q/internal/expansion"
	"p3q/internal/sim"
	"p3q/internal/similarity"
	"p3q/internal/tagging"
	"p3q/internal/topk"
	"p3q/internal/trace"
)

// Identifier types of the data model.
type (
	// UserID identifies a user (and her node).
	UserID = tagging.UserID
	// ItemID identifies a tagged item.
	ItemID = tagging.ItemID
	// TagID identifies a tag.
	TagID = tagging.TagID
	// Action is one tagging action: (item, tag) by the profile owner.
	Action = tagging.Action
	// Profile is a user's append-only tagging history.
	Profile = tagging.Profile
	// Vocabulary interns human-readable tag and item names.
	Vocabulary = tagging.Vocabulary
)

// NewProfile returns an empty profile owned by the given user.
func NewProfile(owner UserID) *Profile { return tagging.NewProfile(owner) }

// NewVocabulary returns an empty name-interning vocabulary.
func NewVocabulary() *Vocabulary { return tagging.NewVocabulary() }

// Protocol engine types.
type (
	// Config holds the protocol parameters (s, c, r, alpha, k, ...).
	Config = core.Config
	// Engine drives a population of P3Q nodes cycle by cycle.
	Engine = core.Engine
	// Node is one P3Q participant.
	Node = core.Node
	// QueryRun is the querier-side handle of an in-flight query.
	QueryRun = core.QueryRun
	// QueryBytes is the per-query traffic breakdown.
	QueryBytes = core.QueryBytes
)

// DefaultConfig returns the laptop-scale protocol configuration (s=100,
// c=10, r=10, alpha=0.5, k=10, the paper's Bloom geometry, planning and
// commit on all cores, no delivery delay).
func DefaultConfig() Config { return core.DefaultConfig() }

// Latency model types (Config.Latency).
type (
	// LatencyModel draws per-message one-way delivery delays.
	LatencyModel = sim.LatencyModel
	// FixedLatency is a constant delay.
	FixedLatency = sim.FixedLatency
	// UniformLatency draws uniformly from [Min, Max].
	UniformLatency = sim.UniformLatency
	// LogNormalLatency draws heavy-tailed Internet-like delays.
	LogNormalLatency = sim.LogNormalLatency
	// GeoLatency models zoned deployments with a zone-pair latency matrix.
	GeoLatency = sim.GeoLatency
)

// ParseLatency builds a latency model from a CLI-style spec ("none",
// "fixed:50ms", "uniform:10ms,200ms", "lognormal:1s,0.8",
// "geo:3,25ms,120ms").
func ParseLatency(spec string) (LatencyModel, error) { return sim.ParseLatency(spec) }

// NewGeoLatency builds the symmetric zone model of the geo CLI spec: intra
// within a zone, inter across zones, nodes assigned round-robin.
func NewGeoLatency(zones int, intra, inter time.Duration) GeoLatency {
	return sim.NewGeoLatency(zones, intra, inter)
}

// NewEngine builds an engine over the dataset. Call Bootstrap and RunLazy
// to converge organically, or SeedIdealNetworks to start converged.
func NewEngine(ds *Dataset, cfg Config) *Engine { return core.New(ds, cfg) }

// RestoreEngine rebuilds an engine from a checkpoint written by
// Engine.Snapshot. With ds == nil the dataset is materialized from the
// checkpoint's embedded profile logs; with a dataset (the deterministically
// regenerated base trace), its profiles are validated as prefixes of the
// checkpointed logs and fast-forwarded in place — the converge-once,
// fork-many path. The restored engine continues byte-for-byte as the
// snapshotted engine would, for any Config.Workers value and under any
// Config.Latency model; all other protocol parameters must match the
// snapshotting configuration.
func RestoreEngine(r io.Reader, ds *Dataset, cfg Config) (*Engine, error) {
	return core.Restore(r, ds, cfg)
}

// Workload substrate types.
type (
	// Dataset is a set of user profiles over a shared item/tag space.
	Dataset = trace.Dataset
	// TraceParams configures the synthetic trace generator.
	TraceParams = trace.GenParams
	// Query is a personalized top-k query (querier + tags).
	Query = trace.Query
	// Change is a set of new tagging actions for one user.
	Change = trace.Change
	// ChangeParams configures a profile change-set draw.
	ChangeParams = trace.ChangeParams
	// TraceStats summarizes a dataset's marginals.
	TraceStats = trace.Stats
)

// DefaultTraceParams returns generator parameters matching the paper's
// delicious crawl shape, scaled to the given number of users.
func DefaultTraceParams(users int) TraceParams { return trace.DefaultGenParams(users) }

// GenerateTrace builds a synthetic collaborative-tagging dataset.
func GenerateTrace(p TraceParams) *Dataset { return trace.Generate(p) }

// LoadTrace reads a dataset in the binary trace format (e.g. a converted
// real crawl).
func LoadTrace(r io.Reader) (*Dataset, error) { return trace.Load(r) }

// SaveTrace writes a dataset in the binary trace format.
func SaveTrace(w io.Writer, ds *Dataset) error { return trace.Save(w, ds) }

// TraceStatistics computes a dataset's summary statistics.
func TraceStatistics(ds *Dataset) TraceStats { return trace.ComputeStats(ds) }

// GenerateQueries produces one query per user as in §3.1.1 of the paper: a
// random item of the user's profile and the tags she used on it.
func GenerateQueries(ds *Dataset, seed uint64) []Query { return trace.GenerateQueries(ds, seed) }

// QueryFor builds the query of a single user with the same procedure.
func QueryFor(ds *Dataset, u UserID, seed uint64) (Query, bool) { return trace.QueryFor(ds, u, seed) }

// GenerateChanges draws a profile change-set without applying it (§3.4.1).
func GenerateChanges(ds *Dataset, p ChangeParams) []Change { return trace.GenerateChanges(ds, p) }

// ApplyChanges applies a change-set and returns the number of actions added.
func ApplyChanges(ds *Dataset, changes []Change) int { return trace.ApplyChanges(ds, changes) }

// Similarity oracle types.
type (
	// Neighbour is a scored personal-network candidate.
	Neighbour = similarity.Neighbour
)

// IdealNetworks computes every user's ideal personal network (top-s most
// similar users) offline from global information — the evaluation's ground
// truth and the input of Engine.SeedIdealNetworks.
func IdealNetworks(ds *Dataset, s int) [][]Neighbour { return similarity.IdealNetworks(ds, s) }

// Result types.
type (
	// Entry is one row of a top-k result list.
	Entry = topk.Entry
	// Centralized is the global-knowledge baseline of §3.2.2.
	Centralized = baseline.Centralized
)

// Recall returns |got ∩ want| / |want| over the item sets — the paper's
// result-quality metric.
func Recall(got, want []Entry) float64 { return topk.Recall(got, want) }

// NewCentralized builds the centralized reference (ideal networks of size
// s, exact top-k of size k) the protocol's recall is measured against.
func NewCentralized(ds *Dataset, s, k int) *Centralized { return baseline.NewCentralized(ds, s, k) }

// NewCentralizedWithNets builds the reference reusing precomputed networks.
func NewCentralizedWithNets(ds *Dataset, nets [][]Neighbour, k int) *Centralized {
	return baseline.NewCentralizedWithNets(ds, nets, k)
}

// Extension types (paper §4).
type (
	// Expander computes personalized query expansions from the profiles a
	// node knows locally — the application direction suggested in §1/§4 of
	// the paper.
	Expander = expansion.Expander
	// ExpansionCandidate is one suggested expansion tag with its affinity.
	ExpansionCandidate = expansion.Candidate
	// Snapshot is an immutable point-in-time view of a profile (a stored
	// replica). Obtain them from Node.KnownProfiles or Profile.Snapshot.
	Snapshot = tagging.Snapshot
)

// NewExpander builds personalized tag co-occurrence statistics from profile
// snapshots (typically Node.KnownProfiles()).
func NewExpander(profiles []Snapshot) *Expander { return expansion.New(profiles) }
