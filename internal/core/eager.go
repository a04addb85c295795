package core

import (
	"cmp"
	"slices"
	"time"

	"p3q/internal/hostclock"
	"p3q/internal/obs"
	"p3q/internal/randx"
	"p3q/internal/sim"
	"p3q/internal/tagging"
	"p3q/internal/topk"
	"p3q/internal/trace"
)

// This file implements the eager mode of §2.2.2: on-demand query gossip
// along personal networks with remaining-list splitting (Algorithms 2-3).
// The querier-side merging of Algorithm 4 and everything else that happens
// when a message arrives is in async.go.
//
// Like the lazy mode (lazy.go), an eager cycle runs in a plan/commit
// design so heavy query bursts use every core — in both phases — while
// staying byte-for-byte deterministic:
//
//   - plan: a worker pool plans every (initiator, query) gossip of the
//     cycle concurrently against cycle-start state — destination selection
//     (the Algorithm 3 probe sequence), remaining-list resolution against
//     the destination's stored profiles, the partial-list computation, the
//     α-split, and the piggybacked top-layer maintenance exchange — with
//     all randomness drawn from per-(cycle, query, initiator) split
//     streams and all messages recorded in sim.Ledgers.
//   - commit: one committer per contiguous node index shard walks every
//     plan in the canonical pair order and applies the send-time effects
//     that target its own nodes (commitEagerGossipShard): the plan ledger,
//     the initiator's branch leaving her node, both sides of the
//     maintenance exchange, the gossip timestamps. Several initiators may
//     select the same destination in one cycle, so the maintenance
//     integrations are guarded commit-order intents rather than
//     planned-in-place writes; the canonical per-node order makes them
//     identical for every worker count.
//   - deliver: what a gossip hands to other nodes — the partial result for
//     the querier, the remaining-list portion the destination keeps, the
//     portion returned to the initiator — travels as delivery events,
//     scheduled by a short sequential pass in the same canonical pair order
//     (scheduleEagerGossips) and applied when they arrive (async.go).

// QueryBytes breaks down the traffic generated by one query into the three
// categories of §3.3.2 / Figure 6, plus the personal-network maintenance
// traffic the query's gossips piggyback (digests, common items, profiles).
type QueryBytes struct {
	Forwarded      uint64 // forwarded remaining lists (with the query)
	Returned       uint64 // remaining-list portions sent back to initiators
	PartialResults uint64 // partial result lists sent to the querier
	Maintenance    uint64 // piggybacked lazy-mode maintenance traffic
}

// Total returns the sum of the three query-information categories of
// Figure 6 (maintenance excluded, as in the paper's figure).
func (qb QueryBytes) Total() uint64 { return qb.Forwarded + qb.Returned + qb.PartialResults }

// All returns Total plus the piggybacked maintenance traffic — the full
// burst a query causes on the network (the §3.3.2 Kbps accounting).
func (qb QueryBytes) All() uint64 { return qb.Total() + qb.Maintenance }

// QueryState is the lifecycle state of a query run.
type QueryState uint8

const (
	// QueryActive: the querier is online and the query is still being
	// processed.
	QueryActive QueryState = iota
	// QueryStalled: the querier departed mid-query. The query's branch
	// gossips are suspended (nobody would read the results), its cycle and
	// traffic counters freeze, and it resumes automatically when the
	// querier revives. A querier that never returns leaves the query
	// stalled forever — effectively canceled — without burning eager
	// cycles: AllQueriesDone treats stalled queries as settled.
	QueryStalled
	// QueryDone: every personal-network profile has been collected and the
	// results are final.
	QueryDone
)

// String implements fmt.Stringer.
func (s QueryState) String() string {
	switch s {
	case QueryActive:
		return "active"
	case QueryStalled:
		return "stalled"
	case QueryDone:
		return "done"
	}
	return "unknown"
}

// QueryRun is the querier-side state and public handle of one query
// processed by the eager mode.
//
// While the query is active it carries its working state behind one
// pointer (queryWork). When it settles (settle) that pointer is dropped and
// only a compact record stays: the results, the used count, the reached
// nodes, the traffic and cycle counters and the instants. Every accessor
// below keeps answering after that, so a settled query costs its record
// and nothing else.
type QueryRun struct {
	// ID uniquely identifies the query within the engine.
	ID uint64
	// Query is the gossiped query (querier + tags).
	Query trace.Query

	e *Engine
	// work is the working state; nil exactly when the query is done.
	work   *queryWork
	needed int // personal network size at issue time

	reached   []tagging.UserID // nodes that processed the query, ascending
	usedCount int              // len(work.used) at settle

	results     []topk.Entry
	cycles      int
	partialMsgs int
	bytes       QueryBytes

	// Virtual-clock metrics (Engine.Now). issuedAt is stamped at
	// IssueQuery; firstAt at the first gossip-delivered partial result;
	// doneAt when the query completes — both at the arrival time of the
	// delivery that caused them, so with no delay they land on cycle
	// boundaries and under a latency model wherever the model puts them.
	issuedAt time.Duration
	firstAt  time.Duration
	hasFirst bool
	doneAt   time.Duration

	// settledSeq records the cycleSeq during which the query settled, so
	// the cycle in whose window a query completes still counts in Cycles.
	// noCycleSeq when settled outside any eager cycle (at issue time).
	settledSeq uint64
}

// queryWork is the working state of an active query, which settle
// releases in one assignment.
type queryWork struct {
	qset topk.TagSet //p3q:transient derived: rebuilt from Query.Tags by the restore path
	nra  *topk.NRA
	// The working user sets, each ascending.
	used        []tagging.UserID // profiles used so far
	activeNodes []tagging.UserID // nodes holding non-empty branches
	pending     [][]topk.Entry   // partial lists arrived since the last merge (mergePending)
	// inflight counts the query's scheduled deliveries, frozen ones
	// included: the query cannot settle while any remain.
	inflight int
}

// noCycleSeq marks a query settled outside any cycle (e.g. at issue time).
const noCycleSeq = ^uint64(0)

// Done reports whether the query has collected every profile of the
// querier's personal network (recall 1 territory, §2.2.2).
func (qr *QueryRun) Done() bool { return qr.work == nil }

// Stalled reports whether the query is suspended because its querier
// departed mid-query. A stalled query resumes when the querier revives.
func (qr *QueryRun) Stalled() bool { return !qr.Done() && !qr.e.net.Online(qr.Query.Querier) }

// State returns the query's lifecycle state, derived from completion and
// the querier's liveness.
func (qr *QueryRun) State() QueryState {
	switch {
	case qr.Done():
		return QueryDone
	case qr.Stalled():
		return QueryStalled
	}
	return QueryActive
}

// Results returns the current top-k estimate, refined at the end of every
// cycle window in which partial results arrived and exact once Done.
func (qr *QueryRun) Results() []topk.Entry { return qr.results }

// Cycles returns the number of eager cycles the query has been processed
// for (0 right after local processing; cycles spent stalled do not count).
func (qr *QueryRun) Cycles() int { return qr.cycles }

// UsersReached returns the number of distinct nodes that processed the
// query, the querier included (Figure 8).
func (qr *QueryRun) UsersReached() int { return len(qr.reached) }

// Reached returns the distinct nodes that processed the query, in
// ascending ID order.
func (qr *QueryRun) Reached() []tagging.UserID { return slices.Clone(qr.reached) }

// ProfilesUsed returns the number of distinct profiles used so far.
func (qr *QueryRun) ProfilesUsed() int {
	if qr.Done() {
		return qr.usedCount
	}
	return len(qr.work.used)
}

// ProfilesNeeded returns the personal network size at issue time plus one
// (the querier's own profile): the denominator of result-quality estimates.
func (qr *QueryRun) ProfilesNeeded() int { return qr.needed }

// PartialResultMessages returns the number of partial result messages sent
// to the querier (bounded by 2^R(alpha) - 1, Theorem 2.3).
func (qr *QueryRun) PartialResultMessages() int { return qr.partialMsgs }

// Bytes returns the per-category traffic generated for this query.
func (qr *QueryRun) Bytes() QueryBytes { return qr.bytes }

// IssuedAt returns the virtual time (Engine.Now) the query was issued.
func (qr *QueryRun) IssuedAt() time.Duration { return qr.issuedAt }

// InFlight returns the number of this query's pending delivery events —
// messages sent but not yet arrived (frozen ones included). With no delay
// every message arrives inside the cycle that sent it, so between cycles
// it reads 0.
func (qr *QueryRun) InFlight() int {
	if qr.Done() {
		return 0
	}
	return qr.work.inflight
}

// TimeToFirstResult returns the virtual time from issue to the arrival of
// the first gossip-delivered partial result. For a query answered entirely
// from local state it is 0; ok is false while no partial result has
// arrived yet.
func (qr *QueryRun) TimeToFirstResult() (time.Duration, bool) {
	if qr.Done() && !qr.hasFirst {
		return 0, true // answered locally at issue time
	}
	if !qr.hasFirst {
		return 0, false
	}
	return qr.firstAt - qr.issuedAt, true
}

// TimeToFullRecall returns the virtual time from issue to completion (the
// recall-1 moment of §2.2.2); ok is false while the query is still being
// processed. A query settles the moment its last outstanding delivery
// arrives: on a cycle boundary with no delay, possibly mid-cycle under a
// latency model.
func (qr *QueryRun) TimeToFullRecall() (time.Duration, bool) {
	if !qr.Done() {
		return 0, false
	}
	return qr.doneAt - qr.issuedAt, true
}

// IssueQuery starts processing a query (Algorithm 2). The querier first
// computes a local partial result over her own profile and the stored
// snapshots of her personal network, displays it, and builds the remaining
// list of neighbours whose profiles must be collected through gossip.
// It returns nil if the querier has departed.
func (e *Engine) IssueQuery(q trace.Query) *QueryRun {
	if !e.net.Online(q.Querier) {
		return nil
	}
	u := e.nodes[q.Querier]
	qr := &QueryRun{
		ID:         uint64(len(e.queries)),
		Query:      q,
		e:          e,
		work:       &queryWork{qset: topk.NewTagSet(q.Tags), nra: topk.NewNRA(e.cfg.K)},
		needed:     u.pnet.Len() + 1,
		reached:    []tagging.UserID{u.id},
		issuedAt:   e.now,
		settledSeq: noCycleSeq,
	}
	e.queries = append(e.queries, qr)
	e.emitQueryEvent(obs.EvIssued, qr.ID, qr.issuedAt, u.id, 0, 0)

	// Local processing over GoodProfiles(querier): own profile + stored
	// snapshots.
	snaps := u.KnownProfiles()
	w := qr.work
	w.used = append(make([]tagging.UserID, 0, qr.needed), u.id)
	for _, entry := range u.pnet.StoredEntries() {
		w.used = append(w.used, entry.ID)
	}
	slices.Sort(w.used)
	w.nra.Run([][]topk.Entry{topk.PartialList(snaps, w.qset)})

	remaining := u.pnet.Unstored()
	if len(remaining) == 0 {
		qr.settle(e.now, noCycleSeq)
		return qr
	}
	u.setBranch(qr.ID, remaining)
	w.activeNodes = []tagging.UserID{u.id}
	qr.results = w.nra.TopK()
	e.active = append(e.active, qr)
	return qr
}

// eagerPair is one (initiator, query) gossip of an eager cycle.
type eagerPair struct {
	u   tagging.UserID
	qid uint64
}

// eagerPairs enumerates this cycle's gossips in the canonical order:
// initiators in the cycle's random permutation order, each initiator's
// branches in ascending query ID. Offline initiators keep their branches
// frozen, and stalled queries (departed querier) are skipped entirely —
// forwarding their branches would burn bandwidth on results nobody reads.
func (e *Engine) eagerPairs() []eagerPair {
	pairs := e.scratch.pairs[:0]
	e.scratch.perm = e.rng.PermInto(e.scratch.perm, len(e.nodes))
	for _, i := range e.scratch.perm {
		n := e.nodes[i]
		if !e.net.Online(n.id) {
			continue
		}
		for _, b := range n.branches {
			if len(b.members) > 0 && !e.queries[b.qid].Stalled() {
				pairs = append(pairs, eagerPair{u: n.id, qid: b.qid})
			}
		}
	}
	e.scratch.pairs = pairs
	return pairs
}

// EagerCycle advances every active query by one gossip cycle: each node
// holding a non-empty remaining list initiates one query gossip per query
// (Algorithm 3), and every querier merges the partial results that reach
// her during the cycle (Algorithm 4).
//
// The gossips run as one plan/commit round: Config.Workers goroutines plan
// every (initiator, query) gossip against the cycle-start state, then the
// same number of shard committers apply the send-time effects — each to its
// own contiguous range of nodes, in the canonical pair order — and a short
// sequential pass schedules what each gossip delivers to other nodes as
// events, Config.Latency after they were sent. The cycle then occupies one
// EagerPeriod of virtual time: every event due inside that window —
// this cycle's and earlier cycles' stragglers — is applied in deterministic
// (time, scheduling order), so with no delay the whole cycle lands at its
// start. The output is byte-for-byte identical for every worker count.
func (e *Engine) EagerCycle() { e.eagerCycle(nil) }

// eagerCycle is EagerCycle with an optional capture of the cycle's gossips
// (see capture.go), which has no effect on the cycle itself.
func (e *Engine) eagerCycle(cp *EagerCapture) {
	t1 := e.now + EagerPeriod
	e.replayFrozen()
	seq := e.cycleSeq
	e.cycleSeq++
	e.gossipEagerPairs(e.eagerPairs(), seq, cp)
	e.pumpEvents(t1)
	e.endEagerCycle(seq)
	e.now = t1
	e.eagerCycles++
	e.obs.Inc(obs.CEagerCycles)
}

// gossipEagerPairs runs the given gossips of cycle seq: plan, sharded
// commit of the send-time effects, and the scheduling of their deliveries
// from the current clock. When cp is non-nil the gossips are described into
// it after the plan phase.
func (e *Engine) gossipEagerPairs(pairs []eagerPair, seq uint64, cp *EagerCapture) {
	e.obs.Add(obs.CGossipsPlanned, uint64(len(pairs)))
	if cp != nil {
		cp.Seq = seq
	}
	if len(pairs) == 0 {
		return
	}
	sw := hostclock.Start()
	// Normalize per-node caches (own digests, evaluated memos) so the
	// planners below only hit read-only paths. The personal networks need no
	// preparation: the ranking is maintained sorted at all times.
	e.forEachNode(func(n *Node) {
		n.digest()
		n.checkEvalCache()
	})
	plans := e.eagerPlanSlots(len(pairs))
	workers := e.planWorkers(cp != nil)
	e.forEachIndex(len(pairs), func(w, i int) {
		e.planEagerGossip(&workers[w], pairs[i], seq, &plans[i])
	})
	e.obs.SamplePhase(obs.PhasePlan, sw.Elapsed())
	if cp != nil {
		e.captureEagerContent(cp, plans)
	}
	sw = hostclock.Start()
	e.commitSharded(func(sh *commitShard) {
		for i := range plans {
			e.commitEagerGossipShard(&plans[i], sh)
		}
	})
	e.scheduleEagerGossips(plans, seq)
	e.obs.SamplePhase(obs.PhaseCommit, sw.Elapsed())
}

// eagerStream derives the randomness stream for one role of a planned
// (initiator, query) gossip: planLabel supplies the (cycle, purpose, peer)
// dimensions and a second-level derivation folds in the query ID, so every
// (cycle, query, initiator, role) combination in the history of a run
// draws from its own stream — the eager analogue of the lazy planners'
// per-(cycle, node) streams. Derive never advances src, so any number of
// concurrent planners can derive streams from a shared node source; the
// returned value lives in the caller's frame (or plan slot) instead of on
// the heap.
//
//p3q:hotpath
func eagerStream(src *randx.Source, seq, purpose uint64, peer tagging.UserID, qid uint64) randx.Source {
	s := src.Derive(planLabel(seq, purpose, peer))
	return s.Derive(qid)
}

// eagerPlan is one planned initiator step of Algorithm 3 for one query,
// computed against cycle-start state. Plans live in the engine's pooled
// eplans slots. The pooling rule is strict: only memory that never outlives
// the cycle is pooled — the maintenance exchange's results are runs of the
// planning worker's arenas. The hand-off slices — foundOwners, plist, keep,
// returned — escape into query state and into delivery events that can
// outlive the cycle (in flight, or frozen at a departed node), so they are
// freshly allocated per plan and only their headers are reset; branch
// aliases the initiator's live branch list.
type eagerPlan struct {
	u   tagging.UserID
	qid uint64

	// ledger counts the destination probes and the query's own messages
	// (forward, partial result, return).
	ledger sim.Ledger

	ok   bool // an online destination was found
	dest tagging.UserID

	branch      []tagging.UserID // the initiator's cycle-start branch (forwarded in full)
	foundOwners []tagging.UserID // members resolved against the destination's storage
	plist       []topk.Entry     // partial result over the resolved profiles
	delivered   bool             // the partial result reached the querier
	keep        []tagging.UserID // unresolved members the destination keeps
	returned    []tagging.UserID // unresolved members sent back to the initiator

	exch exchangePlan // piggybacked top-layer maintenance exchange

	// Commit-resolved outcomes, written by the owning shard committer and
	// read by the sequential scheduling pass after the shards join.
	peerBytes uint64 // commit-resolved traffic of the destination-side integration
	selfBytes uint64 // commit-resolved traffic of the initiator-side integration
}

// eagerPlanSlots returns n pooled plan slots, growing the pool as needed.
// The slots a larger earlier cycle left beyond n are zeroed: their
// hand-off slices would otherwise keep finished queries' lists alive.
func (e *Engine) eagerPlanSlots(n int) []eagerPlan {
	if len(e.scratch.eplans) < n {
		e.scratch.eplans = append(e.scratch.eplans, make([]eagerPlan, n-len(e.scratch.eplans))...)
	}
	clear(e.scratch.eplans[n:])
	return e.scratch.eplans[:n]
}

// planEagerGossip plans one initiator step of Algorithm 3 into the pooled
// plan slot p: destination selection, remaining-list resolution and
// split, and the piggybacked maintenance exchange. It reads only
// cycle-start state and records every message in the plan's ledger, so any
// number of pairs — including pairs sharing an initiator or a destination —
// plan concurrently.
//
//p3q:phase plan
func (e *Engine) planEagerGossip(w *planWorker, pr eagerPair, seq uint64, p *eagerPlan) {
	u := e.nodes[pr.u]
	qr := e.queries[pr.qid]
	p.u, p.qid = pr.u, pr.qid
	p.ok = false
	p.branch = u.branch(pr.qid)
	p.foundOwners, p.plist = nil, nil
	p.delivered = false
	p.keep, p.returned = nil, nil
	p.peerBytes, p.selfBytes = 0, 0
	e.net.InitLedger(&p.ledger)

	drng := eagerStream(u.rng, seq, purposeEagerDest, 0, pr.qid)
	dest := e.selectEagerDest(w, u, p, &drng)
	if dest == nil {
		return // every candidate departed: the branch stalls this cycle
	}
	p.ok, p.dest = true, dest.id

	// Forward the query and the remaining list (piggybacking the profile
	// digests, whose bytes the maintenance exchange accounts below).
	fwd := tagging.QueryWireSize(len(qr.Query.Tags)) + tagging.UsersWireSize(len(p.branch))
	p.ledger.Send(u.id, dest.id, sim.MsgQueryForward, fwd)

	// Destination processing (Algorithm 3, lines 15-25): resolve the
	// remaining-list members whose profiles are stored at the destination,
	// compute the partial result over exactly those profiles, split the
	// rest. rest may itself become the kept or returned portion inside
	// splitRemaining, so unlike the found scratch it must be a fresh
	// allocation.
	found := w.found[:0]
	var rest []tagging.UserID
	for _, ul := range p.branch {
		if snap, ok := dest.lookup(ul); ok {
			found = append(found, snap)
			p.foundOwners = append(p.foundOwners, ul)
		} else {
			rest = append(rest, ul)
		}
	}
	w.found = found

	if len(found) > 0 {
		if e.net.Online(qr.Query.Querier) {
			p.plist = topk.PartialList(found, qr.work.qset)
			sz := tagging.ResultListWireSize(len(p.plist), len(p.foundOwners))
			p.ledger.Send(dest.id, qr.Query.Querier, sim.MsgPartialResult, sz)
			p.delivered = true
		} else {
			// Departed querier: attempt the send anyway — it degrades into
			// the failed-attempt probe — and keep the resolved members in
			// the remaining list, so their profiles are redelivered once
			// the querier revives. Dropping them here would silently break
			// the recall-1 guarantee (§2.2.2): ProfilesUsed could never
			// reach ProfilesNeeded again. EagerCycle's stall gate
			// (eagerPairs) already keeps stalled queries out of this path;
			// the branch is deliberate defense-in-depth for any caller of
			// gossipEagerPairs that bypasses the gate, and the retention
			// regression test exercises it that way.
			p.ledger.Send(dest.id, qr.Query.Querier, sim.MsgPartialResult, 0)
			rest = append(rest, p.foundOwners...)
		}
	}

	// Split: the destination keeps a (1-alpha) portion, the initiator gets
	// the alpha portion back.
	srng := eagerStream(dest.rng, seq, purposeEagerSplit, u.id, pr.qid)
	p.keep, p.returned = splitRemaining(rest, e.cfg.Alpha, &srng)
	p.ledger.Send(dest.id, u.id, sim.MsgQueryReturn, tagging.UsersWireSize(len(p.returned)))

	// "maintain personal network as in lazy mode" (Algorithm 3, lines 12
	// and 24): the eager exchange doubles as a top-layer maintenance
	// exchange, refreshing both sides' personal networks.
	arng := eagerStream(u.rng, seq, purposeEagerAdv, 0, pr.qid)
	brng := eagerStream(dest.rng, seq, purposeEagerAdvReply, u.id, pr.qid)
	e.planTopExchangeInto(w, &p.exch, u, dest, &arng, &brng, nil)
}

// commitEagerGossipShard applies the shard-owned send-time effects of one
// planned gossip, in the canonical role order: the plan ledger (initiator),
// the initiator's branch leaving her node — it was forwarded in full, and
// nothing can have merged into it since the plan, because deliveries are
// applied only after the commit phase — the maintenance exchange, and the
// gossip timestamps. The initiator ages her other neighbours exactly as in
// lazy mode, so consecutive eager gossips rotate over different
// destinations (Algorithm 3 line 6). What the gossip hands to other nodes
// is left to the delivery events (scheduleEagerGossips).
//
//p3q:phase commit
func (e *Engine) commitEagerGossipShard(p *eagerPlan, sh *commitShard) {
	if sh.owns(p.u) {
		sh.ledger.Merge(&p.ledger)
	}
	if !p.ok {
		return
	}
	u, dest := e.nodes[p.u], e.nodes[p.dest]
	peerBytes, selfBytes := e.commitTopExchangeShard(u, dest, &p.exch, sh)
	if sh.owns(u.id) {
		u.dropBranch(p.qid)
		p.selfBytes = selfBytes
		u.pnet.Touch(dest.id)
	}
	if sh.owns(dest.id) {
		p.peerBytes = peerBytes
		dest.pnet.ResetTimestamp(u.id)
	}
}

// emitEagerHops emits the per-hop sim-plane events of one committed
// gossip — forward, partial result, returned portion — with the ledger's
// per-kind byte deltas, timestamped at send time (the cycle's clock),
// matching how the traffic counters account them. Called only from the
// sequential scheduling pass, after the plan found an online destination.
func (e *Engine) emitEagerHops(p *eagerPlan, t *sim.Traffic) {
	if e.obs == nil {
		return
	}
	qr := e.queries[p.qid]
	e.emitQueryEvent(obs.EvForward, p.qid, e.now, p.u, p.dest, t.Bytes[sim.MsgQueryForward])
	if p.delivered {
		e.emitQueryEvent(obs.EvPartial, p.qid, e.now, p.dest, qr.Query.Querier, t.Bytes[sim.MsgPartialResult])
	}
	if len(p.returned) > 0 {
		e.emitQueryEvent(obs.EvReturn, p.qid, e.now, p.dest, p.u, t.Bytes[sim.MsgQueryReturn])
	}
}

// selectEagerDest picks the gossip destination per Algorithm 3 lines 4-9:
// prefer remaining-list members that are also personal-network neighbours,
// oldest timestamp first; otherwise random remaining-list members. Departed
// candidates cost a probe each (recorded in the plan's ledger), up to
// maxProbes. The candidate orderings build in the worker's scratch buffers.
func (e *Engine) selectEagerDest(w *planWorker, u *Node, p *eagerPlan, rng *randx.Source) *Node {
	branch := p.branch
	if e.cfg.DisableEagerBias {
		// Ablation: uniform random destination from the remaining list.
		shuffled := append(w.cand[:0], branch...)
		w.cand = shuffled
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		return e.firstOnline(u, shuffled, &p.ledger)
	}
	inPnet := w.inPnet[:0]
	candidates := w.cand[:0]
	others := 0
	for _, ul := range branch {
		if entry := u.pnet.Entry(ul); entry != nil {
			inPnet = append(inPnet, entry)
		} else {
			candidates = append(candidates, ul)
			others++
		}
	}
	// Oldest timestamps first; equal timestamps in random order so repeated
	// queries do not always walk the same destination sequence.
	rng.Shuffle(len(inPnet), func(i, j int) { inPnet[i], inPnet[j] = inPnet[j], inPnet[i] })
	slices.SortStableFunc(inPnet, func(a, b *Entry) int { return cmp.Compare(u.pnet.age(b), u.pnet.age(a)) })
	w.inPnet = inPnet
	// Assemble the canonical order — personal-network members first, then
	// the shuffled others, which were collected at the head of the buffer —
	// by shifting the others to the tail.
	rng.Shuffle(others, func(i, j int) { candidates[i], candidates[j] = candidates[j], candidates[i] })
	for range inPnet {
		candidates = append(candidates, 0)
	}
	copy(candidates[len(inPnet):], candidates[:others])
	for i, entry := range inPnet {
		candidates[i] = entry.ID
	}
	w.cand = candidates
	return e.firstOnline(u, candidates, &p.ledger)
}

// firstOnline returns the first online candidate, recording a probe in the
// ledger for each departed one, up to maxProbes.
func (e *Engine) firstOnline(u *Node, candidates []tagging.UserID, l *sim.Ledger) *Node {
	probes := 0
	for _, id := range candidates {
		if probes >= maxProbes {
			return nil
		}
		if !e.net.Online(id) {
			l.Send(u.id, id, sim.MsgProbe, 0)
			probes++
			continue
		}
		return e.nodes[id]
	}
	return nil
}

// splitRemaining divides the unresolved remaining list: the destination
// keeps floor((1-alpha)*n) members chosen at random, the rest goes back to
// the initiator (Algorithm 3, lines 19-20).
//
//p3q:phase plan
//p3q:hotpath
func splitRemaining(rest []tagging.UserID, alpha float64, rng *randx.Source) (keep, returned []tagging.UserID) {
	if len(rest) == 0 {
		return nil, nil
	}
	nKeep := int((1 - alpha) * float64(len(rest)))
	if nKeep <= 0 {
		return nil, rest
	}
	if nKeep >= len(rest) {
		return rest, nil
	}
	// Sample returns distinct indices; sorted, they partition rest with a
	// single forward walk, replacing the membership map this function used
	// to allocate per call (hotalloc).
	chosen := rng.Sample(len(rest), nKeep)
	slices.Sort(chosen)
	keep = make([]tagging.UserID, 0, nKeep)               //p3q:alloc result escapes to the caller (the destination's branch list)
	returned = make([]tagging.UserID, 0, len(rest)-nKeep) //p3q:alloc result escapes to the caller (the initiator's branch list)
	next := 0
	for i, ul := range rest {
		if next < len(chosen) && chosen[next] == i {
			next++
			keep = append(keep, ul)
		} else {
			returned = append(returned, ul)
		}
	}
	return keep, returned
}

// mergeUnique appends the new members to the branch, skipping duplicates.
// Branch lists are capped by the remaining-list size (a few hundred at
// most, usually a handful), so a linear scan beats a membership map.
//
//p3q:phase commit
//p3q:hotpath
func mergeUnique(branch, add []tagging.UserID) []tagging.UserID {
	for _, ul := range add {
		if !slices.Contains(branch, ul) {
			branch = append(branch, ul)
		}
	}
	return branch
}
