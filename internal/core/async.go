package core

import (
	"sort"
	"time"

	"p3q/internal/hostclock"
	"p3q/internal/obs"
	"p3q/internal/sim"
	"p3q/internal/tagging"
	"p3q/internal/topk"
)

// This file implements asynchronous eager delivery (Config.Latency): the
// event-driven alternative to the synchronous cycle boundary of the
// paper's PeerSim rounds. The decision of *which* gossips run in a cycle
// is unchanged — every node holding a branch initiates once per query,
// planned concurrently and committed through the sharded committers — but
// the *arrival* of each message is a timestamped event drawn from the
// latency model:
//
//	t0          cycle start: forwards sent, branches consumed
//	tA = t0+dF  forward arrives: the destination has processed the query;
//	            its kept remaining-list portion activates
//	tA+dP       the partial result reaches the querier, who merges it into
//	            the incremental NRA immediately (Algorithm 4, mid-cycle)
//	tA+dR       the returned portion reaches the initiator and re-activates
//	            her branch
//
// Destination processing (remaining-list resolution, the partial-list
// computation, the α-split) stays planned against cycle-start state: node
// storage only changes at cycle granularity, so evaluating it at tA would
// read the same profiles — the latency model delays visibility, not
// computation. Traffic is likewise accounted at send time, exactly as in
// the synchronous engine.
//
// Between cycle boundaries the engine pops due events in deterministic
// (time, scheduling order) and applies them sequentially. A branch that
// arrives after the next cycle boundary simply misses that cycle — the
// latency-vs-recall trade-off the model exists to expose — and a query
// settles (reaches recall 1) the moment its last event lands, possibly
// mid-cycle: QueryRun.TimeToFullRecall reports that instant.
//
// Events firing at a departed node freeze (per node, in arrival order) and
// are redelivered at the clock's current time once the node is back online
// — the store-and-forward assumption; the stalled-query lifecycle of the
// synchronous engine carries over unchanged.
//
// Determinism: plans draw from the same per-(cycle, query, initiator)
// split streams as the synchronous path; latency draws come from per-event
// split streams derived in the canonical pair order by the sequential
// scheduling pass; events are pushed and popped in canonical order. Output
// is therefore byte-for-byte identical for every Config.Workers value, and
// a zero-delay model (sim.FixedLatency(0)) reproduces the synchronous
// engine's protocol state exactly — every event of a cycle fires at t0, in
// the canonical pair order, before the next cycle plans.

// eagerEventKind classifies asynchronous delivery events.
type eagerEventKind uint8

const (
	// evDeliverPartial delivers a partial result list to the querier.
	evDeliverPartial eagerEventKind = iota
	// evBranchKeep activates the remaining-list portion the destination
	// kept, once the forwarded query has arrived.
	evBranchKeep
	// evBranchReturn merges the returned remaining-list portion back into
	// the initiator's branch.
	evBranchReturn
)

// eagerEvent is one in-flight message effect of the asynchronous eager
// mode. node is the target whose state the event mutates (querier,
// destination, or initiator); liveness is checked when the event fires.
type eagerEvent struct {
	kind eagerEventKind
	qid  uint64
	node tagging.UserID

	members []tagging.UserID // branch portion (keep / return)
	plist   []topk.Entry     // partial result list (deliver)
	owners  []tagging.UserID // resolved profile owners (deliver)
}

// eagerCycleAsync is EagerCycle under a latency model. Planning and the
// sharded commit are identical to the synchronous path; the differences
// are confined to what happens to a plan's outputs: branch hand-offs and
// partial results become events scheduled by a sequential pass in the
// canonical pair order, and the event pump applies everything due inside
// the cycle's virtual-time window.
func (e *Engine) eagerCycleAsync() {
	t0 := e.now
	t1 := t0 + e.cfg.EagerPeriod
	e.net.SetNow(t0)
	e.replayFrozen()
	seq := e.cycleSeq
	e.cycleSeq++
	pairs := e.eagerPairs()
	e.obs.Add(obs.CGossipsPlanned, uint64(len(pairs)))
	if len(pairs) > 0 {
		sw := hostclock.Start()
		e.forEachNode(func(n *Node) {
			n.digest()
			n.checkEvalCache()
		})
		plans := e.eagerPlanSlots(len(pairs))
		e.forEachIndex(len(pairs), func(i int) {
			e.planEagerGossipInto(pairs[i], seq, &plans[i])
		})
		e.obs.SamplePhase(obs.PhasePlan, sw.Elapsed())
		sw = hostclock.Start()
		e.commitSharded(func(sh *commitShard) {
			for i := range plans {
				e.commitEagerGossipShardAsync(&plans[i], sh)
			}
		})
		e.scheduleEagerGossips(plans, seq, t0)
		e.obs.SamplePhase(obs.PhaseCommit, sw.Elapsed())
	}
	e.pumpEvents(t1)
	e.endCycleAsync(seq)
	e.now = t1
	e.eagerCycles++
	e.obs.Inc(obs.CEagerCycles)
}

// commitEagerGossipShardAsync applies the shard-owned *immediate* effects
// of one planned gossip: the plan ledger, the initiator's branch
// consumption (the forwarded list left her node at send time), the
// piggybacked maintenance exchange and the gossip timestamps. The two
// branch hand-offs the synchronous committer applies in place — the
// destination's kept portion and the initiator's returned portion — are
// deferred to delivery events (scheduleEagerGossips); everything else
// matches commitEagerGossipShard, including the canonical pair order each
// shard walks.
//
//p3q:phase commit
func (e *Engine) commitEagerGossipShardAsync(p *eagerPlan, sh *commitShard) {
	if sh.owns(p.u) {
		sh.ledger.Merge(&p.ledger)
	}
	if !p.ok {
		return
	}
	u, dest := e.nodes[p.u], e.nodes[p.dest]
	if sh.owns(u.id) {
		// The planned branch was consumed in full at send time; members
		// merged in by events that already fired this window survive via
		// subtraction, exactly as in the synchronous committer.
		next := subtractMembers(u.branches[p.qid], p.branch)
		if len(next) > 0 {
			u.setBranch(p.qid, next)
		} else {
			delete(u.branches, p.qid)
			p.branchEmptied = true
		}
	}

	peerBytes, selfBytes := e.commitTopExchangeShard(u, dest, &p.exch, sh)
	if sh.owns(dest.id) {
		p.peerBytes = peerBytes
	}
	if sh.owns(u.id) {
		p.selfBytes = selfBytes
		u.pnet.Touch(dest.id)
	}
	if sh.owns(dest.id) {
		dest.pnet.ResetTimestamp(u.id)
	}
}

// scheduleEagerGossips is the asynchronous counterpart of
// finalizeEagerGossips: a sequential pass over the cycle's plans in the
// canonical pair order that applies the querier-side bookkeeping resolved
// at send time (traffic, reached-sets, active-branch tracking) and turns
// each plan's deliveries into timestamped events. Latency draws come from
// per-event split streams labelled by (cycle, pair index, message), so the
// schedule is a pure function of the cycle-start state.
func (e *Engine) scheduleEagerGossips(plans []eagerPlan, seq uint64, t0 time.Duration) {
	lrng := e.latRng.Derive(seq)
	for i := range plans {
		p := &plans[i]
		qr := e.queries[p.qid]
		t := p.ledger.Total()
		qr.bytes.Forwarded += t.Bytes[sim.MsgQueryForward]
		qr.bytes.Returned += t.Bytes[sim.MsgQueryReturn]
		qr.bytes.PartialResults += t.Bytes[sim.MsgPartialResult]
		if !p.ok {
			continue
		}
		e.emitEagerHops(p, &t)
		qr.reached[p.dest] = struct{}{}
		qr.bytes.Maintenance += p.exch.ledger.Total().TotalBytes() + p.peerBytes + p.selfBytes

		prng := lrng.Derive(uint64(i))
		frng := prng.Derive(0)
		dF := e.cfg.Latency.Delay(p.u, p.dest, sim.MsgQueryForward, &frng)
		tA := t0 + dF
		if p.delivered {
			drng := prng.Derive(1)
			dP := e.cfg.Latency.Delay(p.dest, qr.Query.Querier, sim.MsgPartialResult, &drng)
			e.scheduleEagerEvent(tA+dP, &eagerEvent{
				kind: evDeliverPartial, qid: p.qid, node: qr.Query.Querier,
				plist: p.plist, owners: p.foundOwners,
			})
		}
		if len(p.keep) > 0 {
			e.scheduleEagerEvent(tA, &eagerEvent{
				kind: evBranchKeep, qid: p.qid, node: p.dest, members: p.keep,
			})
		}
		if len(p.returned) > 0 {
			rrng := prng.Derive(2)
			dR := e.cfg.Latency.Delay(p.dest, p.u, sim.MsgQueryReturn, &rrng)
			e.scheduleEagerEvent(tA+dR, &eagerEvent{
				kind: evBranchReturn, qid: p.qid, node: p.u, members: p.returned,
			})
		}
		if p.branchEmptied {
			delete(qr.activeNodes, p.u)
		} else {
			qr.activeNodes[p.u] = struct{}{}
		}
	}
}

// scheduleEagerEvent enqueues one delivery event and accounts it against
// its query's in-flight counter.
func (e *Engine) scheduleEagerEvent(at time.Duration, ev *eagerEvent) {
	e.queries[ev.qid].inflight++
	e.events.Schedule(at, ev)
	e.obs.Inc(obs.CEventsScheduled)
}

// pumpEvents applies every delivery event due at or before t, in
// deterministic (time, scheduling order). Events firing at a departed node
// freeze and are redelivered after it revives.
func (e *Engine) pumpEvents(t time.Duration) {
	for {
		ev, ok := e.events.PopUntil(t)
		if !ok {
			return
		}
		e.applyEagerEvent(ev.Payload.(*eagerEvent), ev.At)
	}
}

// replayFrozen re-schedules events frozen at nodes that are back online,
// at the current clock, sweeping targets in ascending node order (a
// deterministic order independent of how the map grew). Called at the
// start of every cycle, it covers both Engine.Revive and direct
// Network.SetOnline liveness flips.
func (e *Engine) replayFrozen() {
	if len(e.frozen) == 0 {
		return
	}
	ids := make([]tagging.UserID, 0, len(e.frozen))
	//p3q:orderinvariant collects online keys into ids, which is sorted before use
	for id := range e.frozen {
		if e.net.Online(id) {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		for _, ev := range e.frozen[id] {
			e.events.Schedule(e.now, ev)
			e.obs.Inc(obs.CEventsReplayed)
			e.emitQueryEvent(obs.EvReplayed, ev.qid, e.now, id, 0, 0)
		}
		delete(e.frozen, id)
	}
}

// applyEagerEvent applies one delivery at its arrival time. The target's
// liveness is evaluated now — at arrival — not at send time: a node that
// departed while the message was in flight freezes it for redelivery.
func (e *Engine) applyEagerEvent(ev *eagerEvent, at time.Duration) {
	if !e.net.Online(ev.node) {
		e.frozen[ev.node] = append(e.frozen[ev.node], ev)
		e.obs.Inc(obs.CEventsFrozen)
		e.emitQueryEvent(obs.EvFrozen, ev.qid, at, ev.node, 0, 0)
		return
	}
	qr := e.queries[ev.qid]
	qr.inflight--
	switch ev.kind {
	case evDeliverPartial:
		qr.deliverAsync(ev.plist, ev.owners, at)
	case evBranchKeep, evBranchReturn:
		n := e.nodes[ev.node]
		n.setBranch(ev.qid, mergeUnique(n.branches[ev.qid], ev.members))
		qr.activeNodes[ev.node] = struct{}{}
	}
	qr.maybeSettle(at, e.cycleSeq-1)
}

// deliverAsync merges one arriving partial result list into the
// incremental NRA the moment it lands (Algorithm 4, mid-cycle) and
// refreshes the displayed estimate.
func (qr *QueryRun) deliverAsync(list []topk.Entry, owners []tagging.UserID, at time.Duration) {
	for _, o := range owners {
		qr.used[o] = struct{}{}
	}
	qr.partialMsgs++
	qr.e.obs.Inc(obs.CPartialsDelivered)
	if !qr.hasFirst {
		qr.hasFirst = true
		qr.firstAt = at
		qr.e.emitQueryEvent(obs.EvFirstPartial, qr.ID, at, qr.Query.Querier, 0, 0)
	}
	qr.results = qr.nra.Run([][]topk.Entry{list})
}

// maybeSettle completes the query if no node holds a remaining list and no
// delivery is in flight: the recall-1 moment of §2.2.2, timestamped at the
// arrival that sealed it. seq is the cycle during which it happened, so
// endCycleAsync still counts that cycle as processed.
func (qr *QueryRun) maybeSettle(at time.Duration, seq uint64) {
	if qr.done || qr.inflight > 0 || len(qr.activeNodes) > 0 {
		return
	}
	qr.done = true
	qr.doneAt = at
	qr.settledSeq = seq
	qr.results = qr.nra.Drain()
	qr.e.obs.Inc(obs.CQueriesSettled)
	qr.e.emitQueryEvent(obs.EvSettled, qr.ID, at, qr.Query.Querier, 0, 0)
}

// endCycleAsync closes one asynchronous eager cycle: queries that settled
// during this cycle's window (or are still active) count it in Cycles, and
// active queries refresh their displayed estimate. Stalled queries stay
// frozen, exactly as in the synchronous endCycle; merging happened on
// arrival, so there is no batch to absorb here.
func (e *Engine) endCycleAsync(seq uint64) {
	for _, qid := range e.queryOrder {
		qr := e.queries[qid]
		if qr.done {
			if qr.settledSeq == seq {
				qr.cycles++
			}
			continue
		}
		if qr.Stalled() {
			continue
		}
		qr.cycles++
		qr.results = qr.nra.TopK()
	}
}
