package core

import (
	"slices"
	"sort"
	"time"

	"p3q/internal/obs"
	"p3q/internal/randx"
	"p3q/internal/sim"
	"p3q/internal/tagging"
	"p3q/internal/topk"
)

// This file implements eager delivery: what an eager gossip hands to other
// nodes arrives as a timestamped event. The decision of *which* gossips run
// in a cycle belongs to the plan/commit round of eager.go — every node
// holding a branch initiates once per query — and the *arrival* of each
// message is drawn from Config.Latency:
//
//	t0          cycle start: forwards sent, the initiators' branches leave
//	tA = t0+dF  forward arrives: the destination has processed the query;
//	            its kept remaining-list portion activates
//	tA+dP       the partial result reaches the querier
//	tA+dR       the returned portion reaches the initiator and re-activates
//	            her branch
//
// With Config.Latency nil every delay is zero and the whole cycle lands at
// t0, in the canonical pair order: the paper's PeerSim round.
//
// Destination processing (remaining-list resolution, the partial-list
// computation, the α-split) stays planned against cycle-start state: node
// storage only changes at cycle granularity, so evaluating it at tA would
// read the same profiles — the latency model delays visibility, not
// computation. Traffic is likewise accounted at send time.
//
// A cycle (eager or lazy) occupies a window of virtual time and pops the
// events due inside it in deterministic (time, scheduling order), applying
// them sequentially (pumpEvents). A branch that arrives after the next
// cycle boundary simply misses that cycle — the latency-vs-recall trade-off
// the model exists to expose — and a query settles (reaches recall 1) the
// moment its last event lands, possibly mid-cycle:
// QueryRun.TimeToFullRecall reports that instant.
//
// Merging (Algorithm 4, "one batch per gossip cycle"): an arriving partial
// list is stamped and counted at its arrival time but only queued; the
// queued lists of a query go through one NRA run when the query settles and
// otherwise when the window's pump ends (mergePending) — never from a
// getter — so the batch is a function of the event order alone. With no
// delay it is exactly the cycle's arrivals. Under a positive delay the
// in-progress estimate of an unfinished query is therefore as of the last
// window end, while the time stamps are exact.
//
// Events firing at a departed node freeze (per node, in arrival order) and
// are redelivered at the clock's current time once the node is back online
// — the store-and-forward assumption.
//
// Determinism: latency draws come from per-event split streams derived in
// the canonical pair order by the sequential scheduling pass; events are
// pushed and popped in canonical order. Output is therefore byte-for-byte
// identical for every Config.Workers value, and sim.FixedLatency(0) is
// indistinguishable from nil, checkpoint bytes included.

// eagerEventKind classifies delivery events.
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

// eagerEvent is one in-flight message effect of the eager mode. node is the
// target whose state the event mutates (querier, destination, or
// initiator); liveness is checked when the event fires.
type eagerEvent struct {
	kind eagerEventKind
	qid  uint64
	node tagging.UserID

	members []tagging.UserID // branch portion (keep / return)
	plist   []topk.Entry     // partial result list (deliver)
	owners  []tagging.UserID // resolved profile owners (deliver)
}

// scheduleEagerGossips is the sequential pass over the cycle's committed
// plans, in the canonical pair order: it applies the querier-side
// bookkeeping resolved at send time (traffic, including the maintenance
// bytes the shard committers resolved, reached-sets, the initiator's branch
// leaving the active set) and turns each plan's deliveries into events
// timestamped from the current clock. Latency draws come from per-event
// split streams labelled by (cycle, pair index, message), so the schedule
// is a pure function of the cycle-start state.
func (e *Engine) scheduleEagerGossips(plans []eagerPlan, seq uint64) {
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
		qr.bytes.Maintenance += uint64(p.exch.sizeA+p.exch.sizeB) + p.peerBytes + p.selfBytes
		delete(qr.activeNodes, p.u)

		prng := lrng.Derive(uint64(i))
		tA := e.now + e.delay(&prng, 0, p.u, p.dest, sim.MsgQueryForward)
		if p.delivered {
			dP := e.delay(&prng, 1, p.dest, qr.Query.Querier, sim.MsgPartialResult)
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
			dR := e.delay(&prng, 2, p.dest, p.u, sim.MsgQueryReturn)
			e.scheduleEagerEvent(tA+dR, &eagerEvent{
				kind: evBranchReturn, qid: p.qid, node: p.u, members: p.returned,
			})
		}
	}
}

// delay draws the one-way delay of one message from sub-stream label of its
// gossip's latency stream. A nil Config.Latency is no delay, and draws
// nothing.
func (e *Engine) delay(prng *randx.Source, label uint64, from, to tagging.UserID, kind sim.Kind) time.Duration {
	if e.cfg.Latency == nil {
		return 0
	}
	rng := prng.Derive(label)
	return e.cfg.Latency.Delay(from, to, kind, &rng)
}

// scheduleEagerEvent enqueues one delivery event and accounts it against
// its query's in-flight counter.
func (e *Engine) scheduleEagerEvent(at time.Duration, ev *eagerEvent) {
	e.queries[ev.qid].inflight++
	e.events.Schedule(at, ev)
	e.obs.Inc(obs.CEventsScheduled)
}

// pumpEvents applies every delivery event due at or before t, in
// deterministic (time, scheduling order), then merges what arrived at the
// queriers still waiting for more. Events firing at a departed node freeze
// and are redelivered after it revives.
func (e *Engine) pumpEvents(t time.Duration) {
	for {
		ev, ok := e.events.PopUntil(t)
		if !ok {
			break
		}
		e.applyEagerEvent(ev.Payload.(*eagerEvent), ev.At)
	}
	for _, qr := range e.active {
		qr.mergePending()
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
		qr.deliver(ev.plist, ev.owners, at)
	case evBranchKeep, evBranchReturn:
		n := e.nodes[ev.node]
		n.setBranch(ev.qid, mergeUnique(n.branches[ev.qid], ev.members))
		qr.activeNodes[ev.node] = struct{}{}
	}
	qr.maybeSettle(at, e.cycleSeq-1)
}

// deliver records a partial result list arriving at the querier: the
// profiles it covers count as used and the first-result stamp is taken now,
// the list itself waits in pending for the next merge.
func (qr *QueryRun) deliver(list []topk.Entry, owners []tagging.UserID, at time.Duration) {
	qr.pending = append(qr.pending, list)
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
}

// mergePending runs the lists that arrived since the last merge through
// the incremental NRA as one batch (Algorithm 4) and refreshes the
// displayed estimate. NRA.Run keeps the lists but not the batch slice, so
// its backing array is reused.
func (qr *QueryRun) mergePending() {
	if len(qr.pending) == 0 {
		return
	}
	qr.results = qr.nra.Run(qr.pending)
	clear(qr.pending)
	qr.pending = qr.pending[:0]
}

// maybeSettle completes the query if no node holds a remaining list and no
// delivery is in flight: the recall-1 moment of §2.2.2, timestamped at the
// arrival that sealed it. seq is the cycle during which it happened, so
// endEagerCycle still counts that cycle as processed.
func (qr *QueryRun) maybeSettle(at time.Duration, seq uint64) {
	if qr.done || qr.inflight > 0 || len(qr.activeNodes) > 0 {
		return
	}
	qr.settle(at, seq)
}

// settle completes the query at instant at, during cycle seq (noCycleSeq
// outside any cycle). No remaining list is left anywhere, so the protocol
// guarantees the accurate results now: the last lists are merged and NRA's
// open bounds resolved. Then the working state goes — the NRA, the
// unmerged lists, the used, reached and active-node sets — and the query
// keeps its compact record: the used count and the reached nodes as a
// sorted list of at most s+1 IDs.
func (qr *QueryRun) settle(at time.Duration, seq uint64) {
	qr.done = true
	qr.doneAt = at
	qr.settledSeq = seq
	qr.mergePending()
	qr.results = qr.nra.Drain()
	qr.usedCount = len(qr.used)
	qr.reachedIDs = sortedIDs(qr.reached)
	qr.qset = topk.TagSet{}
	qr.nra, qr.pending = nil, nil
	qr.used, qr.reached, qr.activeNodes = nil, nil, nil
	qr.e.obs.Inc(obs.CQueriesSettled)
	qr.e.emitQueryEvent(obs.EvSettled, qr.ID, at, qr.Query.Querier, 0, 0)
}

// sortedIDs returns the members of a user set in ascending order.
func sortedIDs(set map[tagging.UserID]struct{}) []tagging.UserID {
	ids := make([]tagging.UserID, 0, len(set))
	//p3q:orderinvariant collects keys into ids, which is sorted before use
	for id := range set {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// endEagerCycle closes one eager cycle's accounting: queries that settled
// during this cycle's window, and those still active, count it in Cycles.
// A stalled query is frozen: no cycle count. The settled ones then leave
// the active list.
func (e *Engine) endEagerCycle(seq uint64) {
	for _, qr := range e.active {
		if qr.done {
			if qr.settledSeq == seq {
				qr.cycles++
			}
		} else if !qr.Stalled() {
			qr.cycles++
		}
	}
	e.dropSettled()
}

// dropSettled removes the queries that settled in the cycle just ended
// from the active list.
func (e *Engine) dropSettled() {
	e.active = slices.DeleteFunc(e.active, (*QueryRun).Done)
}
