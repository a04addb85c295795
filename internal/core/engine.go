package core

import (
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"p3q/internal/gossip"
	"p3q/internal/hostclock"
	"p3q/internal/obs"
	"p3q/internal/randx"
	"p3q/internal/sim"
	"p3q/internal/similarity"
	"p3q/internal/tagging"
	"p3q/internal/trace"
)

// Engine drives a population of P3Q nodes cycle by cycle, the equivalent of
// the paper's PeerSim setup. It owns the simulated network (liveness and
// traffic accounting) and the query registry.
//
// Engines are deterministic: identical dataset, configuration and seed
// reproduce identical cycles, byte counts and query results — independently
// of Config.Workers. Both modes run on a plan/commit design, and both
// phases are parallel:
//
//   - plan: a worker pool of Config.Workers goroutines plans the cycle's
//     exchanges concurrently against the cycle-start state (per online node
//     in lazy cycles, see lazy.go; per (initiator, query) gossip in eager
//     cycles, see eager.go).
//   - commit: the population is partitioned into Config.Workers contiguous
//     node index shards, and one committer per shard applies only its own
//     nodes' intents, walking every plan in the canonical order (see
//     commitSharded). Shards never share a node, and commit-time traffic is
//     counted in per-shard ledgers summed afterwards, so every worker count
//     produces byte-for-byte identical output.
//
// The worker pools are internal; the engine's methods themselves must
// still be called from one goroutine at a time.
type Engine struct {
	cfg   Config
	ds    *trace.Dataset
	net   *sim.Network
	nodes []*Node
	rng   *randx.Source

	lazyCycles  int
	eagerCycles int

	// cycleSeq numbers every cycle (lazy or eager) ever started; it labels
	// the per-cycle split streams of the planning phases so no two cycles
	// reuse a stream.
	cycleSeq uint64
	// killSeq numbers every Kill call; it labels the kill stream so two
	// Kill calls with no intervening cycle still draw independent sets.
	killSeq uint64

	// queries holds every issued query, indexed by its ID: IssueQuery
	// assigns the next position, and only on success, so the IDs are
	// dense from zero and the slice is also the issue order.
	queries []*QueryRun
	// active lists the queries not yet settled, in issue order: the only
	// ones a cycle, a liveness change or Stats has to visit. A query that
	// settles leaves it at the end of the cycle it settled in.
	//
	//p3q:transient derived: Restore rebuilds it from the query records
	active []*QueryRun

	// now is the engine's virtual clock: EagerPeriod per eager cycle,
	// LazyPeriod per lazy cycle, starting at zero. The event scheduler
	// stamps deliveries against it and the per-query time metrics
	// (time-to-first-result, time-to-full-recall) are measured on it.
	now time.Duration
	// events is the pending delivery queue of the eager mode: timestamped
	// message events, popped in deterministic (time, scheduling order) by
	// the cycle whose virtual-time window they fall in (see async.go).
	events *sim.EventQueue
	// latRng seeds the per-event latency streams: split per (cycle, pair,
	// message) in the canonical scheduling order, so delay draws are
	// independent of Workers.
	latRng *randx.Source

	// naiveExchangeBytes tallies what every top-layer exchange would have
	// cost if full profiles were shipped instead of running the 3-step
	// digest/common-items/delta protocol of Algorithm 1 (ablation ledger).
	naiveExchangeBytes uint64

	// obs is the optional telemetry registry (see internal/obs and SetObs).
	// It strictly observes: sim-plane counters/events are derived from
	// engine state, host-plane timings from hostclock windows, and nothing
	// ever flows back — attaching a registry changes no fingerprint, which
	// the obspurity analyzer enforces statically and the invariance tests
	// pin dynamically. nil disables collection.
	//
	//p3q:transient observes the run, never part of engine state; reattach after restore
	obs *obs.Registry

	//p3q:transient pooled working memory; every use re-initializes what it reads, only capacity survives
	scratch scratch
}

// scratch is the engine's pooled working memory. Every cycle re-initializes
// the slots it uses (a plan slot's used flag gates the committers) and
// resets the plan workers' arenas, so the only state that survives a cycle
// is buffer capacity — a steady-state cycle plans and commits without
// allocating. The plan slots hold headers only: their buffers are runs of
// the arenas (see arena.go).
type scratch struct {
	vplans  []viewPlan    // lazy round-1 plan pool, one slot per node
	tplans  []topPlan     // lazy round-2 plan pool, one slot per node
	eplans  []eagerPlan   // eager plan pool, one slot per gossip
	workers []planWorker  // one per plan goroutine: planner scratch and output arenas
	pairs   []eagerPair   // the eager cycle's gossip pairs
	perm    []int         // the cycle's node permutation
	shards  []commitShard // commit-phase shards, re-initialized by commitSharded
	eval    []evalSlot    // Snapshot's ordered export of one node's evaluated memo
	order   memoOrder     // the bitmap and version column that put it in order
}

// New builds an engine over the dataset. Nodes start with empty personal
// networks and empty random views; call Bootstrap (and run lazy cycles) to
// converge organically, or SeedIdealNetworks to start from converged state.
func New(ds *trace.Dataset, cfg Config) *Engine {
	cfg = cfg.sanitize(ds.Users())
	root := randx.NewSource(cfg.Seed)
	e := &Engine{
		cfg:   cfg,
		ds:    ds,
		net:   sim.NewNetwork(ds.Users()),
		nodes: make([]*Node, ds.Users()),
		// The engine label lives above 32 bits so it can never collide
		// with the per-node labels (u+1) in very large populations.
		rng:    root.Split(0xE16 << 32),
		latRng: root.Split(0x1A7E << 32),
		events: sim.NewEventQueue(),
	}
	for u := 0; u < ds.Users(); u++ {
		id := tagging.UserID(u)
		e.nodes[u] = &Node{
			id:      id,
			e:       e,
			profile: ds.Profiles[u],
			pnet:    NewPersonalNetwork(id, cfg.S, cfg.capacityOf(id)),
			view:    gossip.NewView(id, cfg.R),
			rng:     root.Split(uint64(u) + 1),
		}
	}
	return e
}

// Config returns the engine's (sanitized) configuration.
func (e *Engine) Config() Config { return e.cfg }

// Dataset returns the dataset the engine runs over.
func (e *Engine) Dataset() *trace.Dataset { return e.ds }

// Network returns the simulated network (liveness, traffic counters).
func (e *Engine) Network() *sim.Network { return e.net }

// Node returns the node of the given user.
func (e *Engine) Node(u tagging.UserID) *Node { return e.nodes[u] }

// Users returns the population size.
func (e *Engine) Users() int { return len(e.nodes) }

// LazyCycles returns the number of lazy cycles run so far.
func (e *Engine) LazyCycles() int { return e.lazyCycles }

// EagerCycles returns the number of eager cycles run so far.
func (e *Engine) EagerCycles() int { return e.eagerCycles }

// Now returns the engine's virtual clock: time zero at construction,
// advanced by Config.EagerPeriod per eager cycle and Config.LazyPeriod per
// lazy cycle. Deliveries are scheduled against it and the per-query time
// metrics are measured on it.
func (e *Engine) Now() time.Duration { return e.now }

// PendingEvents returns the number of in-flight delivery events (0 between
// cycles when messages take no time). Frozen events parked at departed
// nodes do not count until redelivery is scheduled.
func (e *Engine) PendingEvents() int { return e.events.Len() }

// FrozenEvents returns the number of delivery events parked at departed
// nodes awaiting redelivery — the store-and-forward backlog that churn
// leaves behind when messages take time to arrive.
func (e *Engine) FrozenEvents() int {
	n := 0
	for _, node := range e.nodes {
		n += len(node.frozen)
	}
	return n
}

// SetObs attaches a telemetry registry (see internal/obs); nil detaches.
// The registry strictly observes the run: sim-plane counters and query
// lifecycle events derive only from engine state, host-plane timings only
// from hostclock windows, and nothing flows back into the engine — so
// attaching a registry changes no fingerprint.
func (e *Engine) SetObs(r *obs.Registry) { e.obs = r }

// Obs returns the attached telemetry registry, nil when none is attached.
func (e *Engine) Obs() *obs.Registry { return e.obs }

// emitQueryEvent emits one sim-plane query lifecycle event to the attached
// registry. Every argument derives from engine state (the virtual clock,
// node IDs, ledger byte deltas), and every call site is sequential engine
// code — issue, the scheduling pass, event application, churn entry
// points — never a parallel planner or shard committer, so emission
// order is deterministic.
func (e *Engine) emitQueryEvent(kind obs.EventKind, qid uint64, at time.Duration, node, peer tagging.UserID, bytes uint64) {
	if e.obs == nil {
		return
	}
	e.obs.Event(obs.QueryEvent{
		Kind:  kind,
		Qid:   qid,
		Cycle: e.cycleSeq,
		At:    at,
		Node:  uint64(node),
		Peer:  uint64(peer),
		Bytes: bytes,
	})
}

// Query returns the query with the given ID, nil when none was issued.
// The ID may come from outside the process (a daemon's status request),
// so any value is legal.
func (e *Engine) Query(id uint64) *QueryRun {
	if id >= uint64(len(e.queries)) {
		return nil
	}
	return e.queries[id]
}

// Queries returns every issued query in issue order.
func (e *Engine) Queries() []*QueryRun { return slices.Clone(e.queries) }

// NaiveExchangeBytes returns the hypothetical cost of every top-layer
// exchange so far had full profiles been shipped instead of the 3-step
// protocol of Algorithm 1. Comparing it against the actual
// digest/common-items/profile traffic quantifies the 3-step savings
// (ablation of the design choice in §2.2.1).
func (e *Engine) NaiveExchangeBytes() uint64 { return e.naiveExchangeBytes }

// AllQueriesDone reports whether every issued query has settled: completed,
// or stalled because its querier departed mid-query. A stalled query resumes
// automatically once the querier revives (so AllQueriesDone may flip back to
// false after a Revive), but while the querier is away it must not keep
// RunEager burning cycles forwarding branches nobody will read.
//
// A query with in-flight or frozen delivery events is not yet done even
// when no node holds a branch — completion requires every scheduled event
// applied — so RunEager keeps running (and the clock keeps advancing) until
// the last delivery lands.
func (e *Engine) AllQueriesDone() bool {
	for _, qr := range e.active {
		if !qr.Done() && !qr.Stalled() {
			return false
		}
	}
	return true
}

// Bootstrap seeds every node's random view with R uniformly chosen peers,
// modelling the usual join-through-bootstrap-service assumption of gossip
// protocols ("each user builds her personal network by first discovering
// the contact information of any user currently in the system using the
// random peer sampling protocol", §3.2.1).
func (e *Engine) Bootstrap() {
	n := len(e.nodes)
	for u, node := range e.nodes {
		peers := make([]gossip.Descriptor, 0, e.cfg.R)
		for _, i := range node.rng.Sample(n, e.cfg.R+1) {
			if i == u {
				continue
			}
			peers = append(peers, e.nodes[i].descriptor())
			if len(peers) == e.cfg.R {
				break
			}
		}
		node.view.Bootstrap(peers)
	}
}

// LazyCycle runs one cycle of the lazy mode on every online node: the
// bottom-layer view exchange, the top-layer personal network gossip, and
// the scoring of random-view candidates (§2.2.1: "at each cycle, a user
// gossips with a neighbour from her random view and a neighbour from her
// personal network respectively").
//
// Each layer runs as a plan/commit round: Config.Workers goroutines plan
// every online node's exchange against the cycle-start state, then the
// same number of shard committers apply the intents — each to its own
// contiguous range of nodes, in the cycle's canonical permutation order.
// The output is byte-for-byte identical for every worker count.
func (e *Engine) LazyCycle() { e.lazyCycle(nil) }

// lazyCycle is LazyCycle with an optional capture: when cp is non-nil the
// cycle's exchanges are described into it (see capture.go) after the
// commit phases, with no effect on the cycle itself.
func (e *Engine) lazyCycle(cp *LazyCapture) {
	e.replayFrozen()
	order := e.rng.PermInto(e.scratch.perm, len(e.nodes))
	e.scratch.perm = order
	seq := e.cycleSeq
	e.cycleSeq++
	workers := e.planWorkers(cp != nil)

	sw := hostclock.Start()
	// Normalize per-node caches (own digests, evaluated memos) so the
	// planners below only hit read-only paths.
	// Each unit of work touches one node's state exclusively, so this
	// pre-pass parallelizes too.
	e.forEachNode(func(n *Node) {
		n.digest()
		n.checkEvalCache()
	})

	// Round 1: bottom-layer peer sampling, planned into the pooled slots
	// (an offline node's slot keeps used=false so a stale plan from a
	// previous cycle can never leak into the commit).
	if len(e.scratch.vplans) < len(e.nodes) {
		e.scratch.vplans = make([]viewPlan, len(e.nodes))
	}
	e.forEachIndex(len(e.nodes), func(w, i int) {
		p := &e.scratch.vplans[i]
		p.used = false
		if e.net.Online(e.nodes[i].id) {
			e.planViewInto(&workers[w], e.nodes[i], seq, p)
		}
	})
	e.obs.SamplePhase(obs.PhasePlan, sw.Elapsed())
	sw = hostclock.Start()
	e.commitSharded(func(sh *commitShard) {
		for _, i := range order {
			if e.net.Online(e.nodes[i].id) {
				e.commitViewShard(e.nodes[i], &e.scratch.vplans[i], sh)
			}
		}
	})
	e.obs.SamplePhase(obs.PhaseCommit, sw.Elapsed())

	// Round 2: top-layer personal network gossip plus random-view
	// evaluation, planned against the round-1-committed views.
	sw = hostclock.Start()
	if len(e.scratch.tplans) < len(e.nodes) {
		e.scratch.tplans = make([]topPlan, len(e.nodes))
	}
	e.forEachIndex(len(e.nodes), func(w, i int) {
		p := &e.scratch.tplans[i]
		p.used = false
		if e.net.Online(e.nodes[i].id) {
			e.planTopInto(&workers[w], e.nodes[i], seq, p)
		}
	})
	e.obs.SamplePhase(obs.PhasePlan, sw.Elapsed())
	sw = hostclock.Start()
	e.commitSharded(func(sh *commitShard) {
		for _, i := range order {
			if e.net.Online(e.nodes[i].id) {
				e.commitTopShard(e.nodes[i], &e.scratch.tplans[i], sh)
			}
		}
	})
	e.obs.SamplePhase(obs.PhaseCommit, sw.Elapsed())
	if cp != nil {
		e.captureLazy(cp, seq)
	}
	// The lazy cycle occupies one LazyPeriod of virtual time; in-flight
	// eager deliveries falling inside the window arrive during it.
	t1 := e.now + e.cfg.LazyPeriod
	e.pumpEvents(t1)
	e.dropSettled()
	e.now = t1
	e.lazyCycles++
	e.obs.Inc(obs.CLazyCycles)
}

// commitShard is one committer of the sharded commit phase. It owns the
// contiguous node index range [lo, hi) — the ROADMAP's locality-aware
// grouping: each committer touches one dense slice of the population — and
// applies only the intents targeting its own nodes, recording commit-time
// traffic in its private ledger and the 3-step ablation side ledger in
// naive.
type commitShard struct {
	lo, hi tagging.UserID
	ledger sim.Ledger
	naive  uint64
	merge  gossip.MergeScratch // the working memory of the shard's view merges

	needStore []*Entry // commitIntegration's step-3 entries to fetch, reused per commit

	// dur is the committer's host wall time for the current phase,
	// measured only while a telemetry registry is attached; it feeds the
	// registry's per-shard histograms and the commit-skew samples.
	//
	//p3q:hostplane per-shard hostclock window, observability only
	dur time.Duration
}

// owns reports whether the node belongs to this shard.
func (sh *commitShard) owns(id tagging.UserID) bool { return id >= sh.lo && id < sh.hi }

// commitSharded runs one commit phase: apply is called once per shard —
// concurrently when Workers > 1 — and must walk the cycle's plans in the
// canonical order, applying only the effects owned by the given shard.
// Because shards never share a node and every cross-node input (profiles,
// normalized digests, liveness) is frozen during the phase, each node's
// state receives exactly the same intents in exactly the same order for
// every worker count. Afterwards the per-shard ledgers and side counters
// are added to the network's; a sum of per-kind counters does not depend
// on how the messages were distributed across shards.
func (e *Engine) commitSharded(apply func(sh *commitShard)) {
	n := len(e.nodes)
	workers := e.cfg.Workers
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	size := (n + workers - 1) / workers
	if cap(e.scratch.shards) < workers {
		e.scratch.shards = make([]commitShard, workers)
	}
	shards := e.scratch.shards[:workers]
	for i := range shards {
		lo := min(i*size, n)
		hi := min(lo+size, n)
		shards[i].lo, shards[i].hi = tagging.UserID(lo), tagging.UserID(hi)
		shards[i].naive = 0
		e.net.InitLedger(&shards[i].ledger)
	}
	timed := e.obs != nil
	run := func(sh *commitShard) {
		if !timed {
			apply(sh)
			return
		}
		sw := hostclock.Start()
		apply(sh)
		sh.dur = sw.Elapsed()
	}
	if workers == 1 {
		run(&shards[0])
	} else {
		var wg sync.WaitGroup
		wg.Add(workers)
		for i := range shards {
			go func(sh *commitShard) {
				defer wg.Done()
				run(sh)
			}(&shards[i])
		}
		wg.Wait()
	}
	if timed {
		e.sampleShards(shards)
	}
	for i := range shards {
		e.net.Commit(&shards[i].ledger)
		e.naiveExchangeBytes += shards[i].naive
	}
}

// sampleShards records one commit phase's per-shard telemetry into the
// attached registry, before the ledgers are folded (Network.Commit empties
// them): sim-plane per-shard intent bytes and the commit byte total,
// host-plane per-shard durations and the max-min commit skew — the number
// the locality-aware scheduling work (ROADMAP) wants to shrink. The
// intent bytes fed to the sim plane come from the ledger, never from the
// durations; obspurity holds the function to that.
//
//p3q:hostplane min/max scan over shard wall-clock durations
func (e *Engine) sampleShards(shards []commitShard) {
	minDur, maxDur := shards[0].dur, shards[0].dur
	for i := range shards {
		sh := &shards[i]
		bytes := sh.ledger.Total().TotalBytes()
		e.obs.AddShardIntent(i, bytes)
		e.obs.Add(obs.CCommitBytes, bytes)
		e.obs.SampleShardDuration(sh.dur)
		if sh.dur < minDur {
			minDur = sh.dur
		}
		if sh.dur > maxDur {
			maxDur = sh.dur
		}
	}
	e.obs.SampleCommitSkew(maxDur - minDur)
}

// planChunk is the number of nodes a worker claims per scheduling step:
// large enough to amortize the atomic increment, small enough to balance
// skewed per-node costs.
const planChunk = 64

// forEachIndex runs fn(w, i) for every index i in [0, n), where w < Workers
// identifies the goroutine running the call. With Workers > 1 the indices
// are processed by a worker pool in chunks; fn must therefore be safe to
// run concurrently for distinct indices (the planning contract: read shared
// state, write only the index's own slot and worker w's planWorker). The
// set of fn invocations is identical for every worker count — only the
// schedule, and so which worker's memory a plan's outputs land in, differs.
func (e *Engine) forEachIndex(n int, fn func(w, i int)) {
	workers := e.cfg.Workers
	if max := (n + planChunk - 1) / planChunk; workers > max {
		workers = max
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for {
				lo := int(next.Add(planChunk)) - planChunk
				if lo >= n {
					return
				}
				hi := lo + planChunk
				if hi > n {
					hi = n
				}
				for i := lo; i < hi; i++ {
					fn(w, i)
				}
			}
		}(w)
	}
	wg.Wait()
}

// forEachNode runs fn for every node under the forEachIndex contract.
func (e *Engine) forEachNode(fn func(n *Node)) {
	e.forEachIndex(len(e.nodes), func(_, i int) { fn(e.nodes[i]) })
}

// RunLazy runs n lazy cycles.
func (e *Engine) RunLazy(n int) {
	for i := 0; i < n; i++ {
		e.LazyCycle()
	}
}

// RunEager runs eager cycles until every issued query settles (completes,
// or stalls on a departed querier) or maxCycles elapse, returning the
// number of cycles executed.
func (e *Engine) RunEager(maxCycles int) int {
	ran := 0
	for ; ran < maxCycles && !e.AllQueriesDone(); ran++ {
		e.EagerCycle()
	}
	return ran
}

// Kill takes the given fraction of online nodes offline simultaneously
// (§3.4.2) and returns their IDs. The kill stream is labelled with a
// per-engine counter: Split does not advance the parent source, so a
// constant label would hand two back-to-back Kill calls (no intervening
// cycle) identical streams and correlated kill sets.
func (e *Engine) Kill(frac float64) []tagging.UserID {
	e.killSeq++
	ids := e.net.Kill(frac, e.rng.Split(0xDEAD<<32|e.killSeq))
	// Queries whose querier just departed are now stalled (the state is
	// derived from liveness, so this is the transition moment).
	e.emitQuerierEvents(obs.EvStalled, ids)
	return ids
}

// emitQuerierEvents emits kind for every open query whose querier is in ids.
func (e *Engine) emitQuerierEvents(kind obs.EventKind, ids []tagging.UserID) {
	if e.obs == nil {
		return
	}
	for _, qr := range e.active {
		if !qr.Done() && slices.Contains(ids, qr.Query.Querier) {
			e.emitQueryEvent(kind, qr.ID, e.now, qr.Query.Querier, 0, 0)
		}
	}
}

// Revive brings departed nodes back online. A revived node keeps her
// profile and personal network (the paper's model: departures are
// disconnections, not data loss — "her opinion on the tagged items keeps
// meaningful", §3.4.2) and re-enters the gossip at the next cycle; her
// random view heals through peer sampling. Deliveries frozen while she was
// away are redelivered at the start of the next cycle (see replayFrozen).
func (e *Engine) Revive(ids []tagging.UserID) {
	for _, id := range ids {
		e.net.SetOnline(id, true)
	}
	e.emitQuerierEvents(obs.EvResumed, ids)
}

// SeedExplicitNetworks installs pre-declared social networks (e.g. Facebook
// friend lists) instead of gossip-discovered implicit ones — the deployment
// variant discussed in §4: "equipping each P3Q user with a pre-defined
// explicit network as input would be straightforward: only the eager mode
// of P3Q would suffice". Each user's contacts are scored with the real
// profile similarity (floored at 1 so a declared friend is kept even with
// no tagging overlap), the top-c profiles are stored, and random views are
// bootstrapped for connectivity.
func (e *Engine) SeedExplicitNetworks(contacts [][]tagging.UserID) {
	if len(contacts) != len(e.nodes) {
		panic("core: SeedExplicitNetworks needs one contact list per user")
	}
	e.seedNetworks(func(u int) []similarity.Neighbour {
		nbs := make([]similarity.Neighbour, 0, len(contacts[u]))
		for _, friend := range contacts[u] {
			score := e.nodes[u].profile.CommonScore(e.nodes[friend].profile.Snapshot())
			nbs = append(nbs, similarity.Neighbour{ID: friend, Score: max(score, 1)})
		}
		return nbs
	})
}

// SeedIdealNetworks installs the given (offline-computed) ideal personal
// networks into every node: the top-s neighbours with their scores and
// digests, fresh stored snapshots for the top-c, and warmed evaluation
// caches. Random views are bootstrapped as usual. This is how experiments
// that assume converged networks (Figures 3-6, 8, 11) start without paying
// hundreds of lazy cycles.
func (e *Engine) SeedIdealNetworks(nets [][]similarity.Neighbour) {
	e.seedNetworks(func(u int) []similarity.Neighbour {
		return nets[u][:min(len(nets[u]), e.cfg.S)]
	})
}

// seedNetworks gives every node u a fresh personal network of the scored
// candidates cands(u) returns, in their order — the node itself and a
// candidate already held are skipped — with one digest per user shared by
// every holder (digests of the same profile version are identical),
// warmed evaluation caches and fresh stored replicas for the top-c. The
// ranking is reserved to the candidate count, so a network of distinct
// candidates (every ideal one) keeps no append slack. Then the random
// views are bootstrapped.
func (e *Engine) seedNetworks(cands func(u int) []similarity.Neighbour) {
	digests := make([]*tagging.Digest, len(e.nodes))
	for u, node := range e.nodes {
		digests[u] = node.digest()
	}
	var needStore []*Entry
	for u, node := range e.nodes {
		node.pnet = NewPersonalNetwork(node.id, e.cfg.S, e.cfg.capacityOf(node.id))
		node.checkEvalCache()
		nbs := cands(u)
		node.pnet.ranking = make([]Entry, 0, len(nbs))
		for _, nb := range nbs {
			if nb.ID == node.id || node.pnet.Contains(nb.ID) {
				continue
			}
			node.pnet.Upsert(nb.ID, nb.Score, digests[nb.ID])
			node.evaluated.Put(uint32(nb.ID), int32(digests[nb.ID].Version))
		}
		needStore = node.pnet.AppendRebalance(needStore)
		for _, entry := range needStore {
			entry.Stored = int32(e.nodes[entry.ID].profile.Version())
		}
	}
	e.Bootstrap()
}
