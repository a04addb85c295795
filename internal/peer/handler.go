package peer

import (
	"fmt"
	"slices"

	"p3q/internal/obs"
	"p3q/internal/tagging"
	"p3q/internal/trace"
	"p3q/internal/wire"
)

// handle dispatches one incoming wire message. Handlers that must call
// other daemons (partial-result delivery, gateway relays) do so on
// connections of their own and without holding the daemon mutex, so the
// conversation mesh cannot deadlock: no goroutine ever waits on the wire
// while holding a lock or a connection another conversation needs.
func (d *Daemon) handle(req wire.Msg) wire.Msg {
	switch m := req.(type) {
	case *wire.Hello:
		return d.serveHello(m)
	case *wire.Step:
		// Lockstep operations need the full mesh: the step's exchange
		// phase calls every other daemon. A freshly-started daemon can be
		// stepped by the lead before its own Connect finishes, so hold the
		// request until then — each connection has its own serving
		// goroutine, so blocking here blocks nobody else.
		if !d.waitReady() {
			return nil // never connected: drop the conn, the lead reports it
		}
		cs := d.stepLocal(m.Kind)
		if cs.seq != m.Seq {
			d.divergence.Add(1)
		}
		if err := d.exchangePhase(cs); err != nil {
			d.divergence.Add(1)
		}
		return &wire.StepAck{Seq: cs.seq}
	case *wire.ViewExchangeReq:
		return d.serveView(m)
	case *wire.TopExchangeReq:
		return d.serveTop(m)
	case *wire.DirectFetchReq:
		return d.serveFetch(m)
	case *wire.EagerForwardReq:
		return d.serveEagerForward(m)
	case *wire.PartialResult:
		d.acceptPartial(m)
		return &wire.PartialResultAck{}
	case *wire.QuerySubmit:
		return d.serveSubmit(m)
	case *wire.QueryIssue:
		if !d.waitReady() {
			return nil
		}
		qid, err := d.issueLocal(trace.Query{Querier: m.Querier, Tags: m.Tags})
		return &wire.QueryIssueAck{OK: err == nil, Qid: qid}
	case *wire.QueryStatus:
		return d.serveStatus(m)
	case *wire.Stats:
		return d.serveStats()
	case *wire.Shutdown:
		d.stopOnce.Do(func() { close(d.stopCh) })
		return &wire.ShutdownAck{}
	default:
		d.divergence.Add(1)
		return nil // protocol confusion: drop the connection
	}
}

func (d *Daemon) serveHello(m *wire.Hello) wire.Msg {
	reject := func(format string, args ...any) wire.Msg {
		return &wire.HelloAck{OK: false, Index: uint32(d.cfg.Index), Reason: fmt.Sprintf(format, args...)}
	}
	if int(m.Index) >= len(d.cfg.Addrs) || int(m.Index) == d.cfg.Index {
		return reject("daemon index %d not valid in a %d-daemon cluster", m.Index, len(d.cfg.Addrs))
	}
	if int(m.Users) != d.cfg.Gen.Users {
		return reject("universe size %d, ours is %d", m.Users, d.cfg.Gen.Users)
	}
	lo, hi := hostedRange(d.cfg.Gen.Users, len(d.cfg.Addrs), int(m.Index))
	if tagging.UserID(m.Lo) != lo || tagging.UserID(m.Hi) != hi {
		return reject("daemon %d claims range [%d,%d), layout says [%d,%d)", m.Index, m.Lo, m.Hi, lo, hi)
	}
	if m.Seed != d.cfg.Engine.Seed {
		return reject("seed %d, ours is %d", m.Seed, d.cfg.Engine.Seed)
	}
	if m.ConfigSum != d.paramsSum {
		return reject("engine config sum %x, ours is %x", m.ConfigSum, d.paramsSum)
	}
	if m.DatasetSum != d.profilesSum {
		return reject("dataset sum %x, ours is %x", m.DatasetSum, d.profilesSum)
	}
	return &wire.HelloAck{OK: true, Index: uint32(d.cfg.Index)}
}

// currentCycle fetches the cycle state once this daemon has stepped the
// request's cycle, and only if it matches the request's coordinates; a
// mismatch means the peers disagree about where the lockstep stands, which
// the caller charges as its request's one divergence.
func (d *Daemon) currentCycle(kind uint8, seq uint64) *cycleState {
	cs := d.awaitCycle(seq)
	if cs == nil || cs.kind != kind || cs.seq != seq {
		return nil
	}
	return cs
}

// lazyCycle is currentCycle for a lazy exchange request whose partner must
// be hosted here; its initiator comes off the wire, so it is checked
// against the population before the capture is indexed by it.
func (d *Daemon) lazyCycle(seq uint64, initiator, partner tagging.UserID) *cycleState {
	cs := d.currentCycle(wire.StepLazy, seq)
	if cs == nil || !d.hosts(partner) || int(initiator) >= len(cs.lazy.Views) {
		d.divergence.Add(1)
		return nil
	}
	return cs
}

func (d *Daemon) serveView(m *wire.ViewExchangeReq) wire.Msg {
	cs := d.lazyCycle(m.Seq, m.Initiator, m.Partner)
	if cs == nil {
		return &wire.ViewExchangeResp{}
	}
	v := &cs.lazy.Views[m.Initiator]
	if !v.HasPartner || v.Partner != m.Partner || !slices.Equal(m.Buf, v.BufA) {
		d.divergence.Add(1)
		return &wire.ViewExchangeResp{}
	}
	return &wire.ViewExchangeResp{Buf: v.BufB}
}

func (d *Daemon) serveTop(m *wire.TopExchangeReq) wire.Msg {
	cs := d.lazyCycle(m.Seq, m.Initiator, m.Partner)
	if cs == nil {
		return &wire.TopExchangeResp{}
	}
	t := &cs.lazy.Tops[m.Initiator]
	if !t.HasPartner || t.Partner != m.Partner || !slices.Equal(m.Offers, t.OffersA) {
		d.divergence.Add(1)
		return &wire.TopExchangeResp{}
	}
	return &wire.TopExchangeResp{Offers: t.OffersB}
}

func (d *Daemon) serveFetch(m *wire.DirectFetchReq) wire.Msg {
	cs := d.currentCycle(wire.StepLazy, m.Seq)
	if cs == nil {
		d.divergence.Add(1)
		return &wire.DirectFetchResp{}
	}
	d.mu.Lock()
	key := fetchKey{m.Requester, m.Owner}
	offer, found := cs.fetches[key]
	delete(cs.fetches, key)
	d.mu.Unlock()
	if !found {
		d.divergence.Add(1)
		return &wire.DirectFetchResp{}
	}
	return &wire.DirectFetchResp{Offer: offer}
}

func (d *Daemon) serveEagerForward(m *wire.EagerForwardReq) wire.Msg {
	cs := d.currentCycle(wire.StepEager, m.Seq)
	if cs == nil || !d.hosts(m.Dest) {
		d.divergence.Add(1)
		return &wire.EagerForwardResp{}
	}
	pc := cs.pairs[eagerKey{m.Qid, m.Initiator}]
	if pc == nil || !pc.Ok || pc.Dest != m.Dest || pc.Querier != m.Querier ||
		!slices.Equal(m.Tags, pc.Tags) || !slices.Equal(m.Branch, pc.Branch) ||
		!slices.Equal(m.Offers, pc.OffersA) {
		d.divergence.Add(1)
		return &wire.EagerForwardResp{}
	}
	// The destination resolves the branch against its storage and, when
	// anything resolved, sends the partial result list on to the querier
	// before answering the initiator — the natural causal order of
	// Algorithm 3. No daemon lock is held across this call.
	if pc.Delivered {
		if err := d.deliverPartial(cs, pc); err != nil {
			d.divergence.Add(1)
		}
	}
	return &wire.EagerForwardResp{Returned: pc.Returned, Offers: pc.OffersB}
}

func (d *Daemon) serveSubmit(m *wire.QuerySubmit) wire.Msg {
	q := trace.Query{Querier: m.Querier, Tags: m.Tags}
	if d.cfg.Index == 0 {
		qid, err := d.SubmitQuery(q)
		if err != nil {
			return &wire.QuerySubmitAck{OK: false, Reason: err.Error()}
		}
		return &wire.QuerySubmitAck{OK: true, Qid: qid}
	}
	// Members relay to the lead, which is the only daemon allowed to
	// interleave cluster operations.
	resp, err := d.call(0, planeGateway, m)
	if err != nil {
		return &wire.QuerySubmitAck{OK: false, Reason: err.Error()}
	}
	ack, ok := resp.(*wire.QuerySubmitAck)
	if !ok {
		return &wire.QuerySubmitAck{OK: false, Reason: fmt.Sprintf("lead answered %T", resp)}
	}
	return ack
}

// serveStatus answers from this daemon's own replica. Every daemon issues
// every query (the QueryIssue broadcast), so whichever daemon the client
// dialed holds the query's run and answers with no relay: recall counters,
// the traffic split and, once done, the results. The replica settles a
// query while stepping, so a read during a cycle's exchange phase can
// report it done before that cycle's wire deliveries have landed; the
// exchange phase still checks every one of them.
func (d *Daemon) serveStatus(m *wire.QueryStatus) wire.Msg {
	d.mu.Lock()
	defer d.mu.Unlock()
	qr := d.eng.Query(m.Qid)
	if qr == nil {
		return &wire.QueryStatusResp{}
	}
	b := qr.Bytes()
	resp := &wire.QueryStatusResp{
		Known:          true,
		Done:           qr.Done(),
		Cycles:         uint32(qr.Cycles()),
		Used:           uint32(qr.ProfilesUsed()),
		Needed:         uint32(qr.ProfilesNeeded()),
		Forwarded:      b.Forwarded,
		Returned:       b.Returned,
		PartialResults: b.PartialResults,
		Maintenance:    b.Maintenance,
	}
	if resp.Done {
		resp.Results = slices.Clone(qr.Results())
	}
	return resp
}

func (d *Daemon) serveStats() wire.Msg {
	d.mu.Lock()
	defer d.mu.Unlock()
	_, skewMax, _, _ := d.obs.CommitSkew()
	resp := &wire.StatsResp{
		Index:         uint32(d.cfg.Index),
		LazyCycles:    uint64(d.eng.LazyCycles()),
		EagerCycles:   uint64(d.eng.EagerCycles()),
		Divergence:    d.divergence.Load(),
		FrozenEvents:  uint32(d.eng.FrozenEvents()),
		PendingEvents: uint32(d.eng.PendingEvents()),
		PlanNanos:     uint64(d.obs.PhaseTotal(obs.PhasePlan).Nanoseconds()),
		CommitNanos:   uint64(d.obs.PhaseTotal(obs.PhaseCommit).Nanoseconds()),
		SkewMaxNanos:  uint64(skewMax.Nanoseconds()),

		QueriesIssued:  d.obs.EventCount(obs.EvIssued),
		QueriesSettled: d.obs.EventCount(obs.EvSettled),
	}
	planes := []*wire.PlaneStat{&resp.Data, &resp.Ctrl, &resp.Gateway, &resp.Served}
	for i := range d.counters {
		planes[i].Msgs = d.counters[i].msgs.Load()
		planes[i].Bytes = d.counters[i].bytes.Load()
		resp.WireMsgs += planes[i].Msgs
		resp.WireBytes += planes[i].Bytes
	}
	return resp
}
