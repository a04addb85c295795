package peer

import (
	"fmt"
	"slices"

	"p3q/internal/obs"
	"p3q/internal/tagging"
	"p3q/internal/topk"
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
		// Lockstep operations need the full mesh: stepping triggers an
		// exchange phase that calls every other daemon. A freshly-started
		// daemon can be stepped by the lead before its own Connect
		// finishes, so hold the request until then — each connection has
		// its own serving goroutine, so blocking here blocks nobody else.
		if !d.waitReady() {
			return nil // never connected: drop the conn, the lead reports it
		}
		seq := d.stepLocal(m.Kind)
		if seq != m.Seq {
			d.divergence.Add(1)
		}
		return &wire.StepAck{Seq: seq}
	case *wire.ExchangeGo:
		if !d.waitReady() {
			return nil
		}
		if err := d.exchangePhase(m.Seq); err != nil {
			d.divergence.Add(1)
		}
		return &wire.ExchangeAck{Seq: m.Seq, Divergence: d.divergence.Load()}
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
	if sum := hashSum(fmt.Sprintf("%+v", d.cfg.Engine)); m.ConfigSum != sum {
		return reject("engine config sum %x, ours is %x", m.ConfigSum, sum)
	}
	if sum := hashSum(fmt.Sprintf("%+v", d.cfg.Gen)); m.DatasetSum != sum {
		return reject("dataset sum %x, ours is %x", m.DatasetSum, sum)
	}
	return &wire.HelloAck{OK: true, Index: uint32(d.cfg.Index)}
}

// currentCycle fetches the cycle state if it matches the request's
// coordinates; a mismatch means the peers disagree about where the
// lockstep stands.
func (d *Daemon) currentCycle(kind uint8, seq uint64) *cycleState {
	d.mu.Lock()
	cs := d.cycle
	d.mu.Unlock()
	if cs == nil || cs.kind != kind || cs.seq != seq {
		d.divergence.Add(1)
		return nil
	}
	return cs
}

func (d *Daemon) serveView(m *wire.ViewExchangeReq) wire.Msg {
	cs := d.currentCycle(wire.StepLazy, m.Seq)
	if cs == nil || !d.hosts(m.Partner) {
		d.divergence.Add(1)
		return &wire.ViewExchangeResp{}
	}
	v := cs.views[pairKey{m.Initiator, m.Partner}]
	if v == nil || !slices.Equal(m.Buf, v.BufA) {
		d.divergence.Add(1)
		return &wire.ViewExchangeResp{}
	}
	return &wire.ViewExchangeResp{Buf: v.BufB}
}

func (d *Daemon) serveTop(m *wire.TopExchangeReq) wire.Msg {
	cs := d.currentCycle(wire.StepLazy, m.Seq)
	if cs == nil || !d.hosts(m.Partner) {
		d.divergence.Add(1)
		return &wire.TopExchangeResp{}
	}
	t := cs.tops[pairKey{m.Initiator, m.Partner}]
	if t == nil || !slices.Equal(m.Offers, t.OffersA) {
		d.divergence.Add(1)
		return &wire.TopExchangeResp{}
	}
	return &wire.TopExchangeResp{Offers: t.OffersB}
}

func (d *Daemon) serveFetch(m *wire.DirectFetchReq) wire.Msg {
	cs := d.currentCycle(wire.StepLazy, m.Seq)
	if cs == nil || !d.hosts(m.Owner) {
		d.divergence.Add(1)
		return &wire.DirectFetchResp{}
	}
	// Fetches from one requester arrive in capture order — its daemon's
	// one exchange loop issues them one after the other, each answered
	// before the next is sent — so popping the queue front matches them up.
	d.mu.Lock()
	key := pairKey{m.Requester, m.Owner}
	queue := cs.fetches[key]
	var offer tagging.DigestRef
	found := len(queue) > 0
	if found {
		offer = queue[0]
		cs.fetches[key] = queue[1:]
	}
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

func (d *Daemon) serveStatus(m *wire.QueryStatus) wire.Msg {
	d.mu.Lock()
	qr := d.runs[m.Qid]
	st := d.queries[m.Qid]
	d.mu.Unlock()
	if qr == nil {
		return &wire.QueryStatusResp{}
	}
	if st == nil {
		// Known query, querier hosted elsewhere: relay to the daemon
		// running its state machine.
		target := d.daemonOf(qr.Query.Querier)
		if target == d.cfg.Index {
			return &wire.QueryStatusResp{}
		}
		resp, err := d.call(target, planeGateway, m)
		if err != nil {
			return &wire.QueryStatusResp{}
		}
		if sr, ok := resp.(*wire.QueryStatusResp); ok {
			return sr
		}
		return &wire.QueryStatusResp{}
	}
	d.mu.Lock()
	resp := &wire.QueryStatusResp{
		Known:  true,
		Done:   st.done,
		Cycles: uint32(st.cycles),
		Used:   uint32(len(st.used)),
		Needed: uint32(st.needed),
	}
	if st.done {
		resp.Results = append([]topk.Entry(nil), st.results...)
	}
	d.mu.Unlock()
	// Aggregate the query's traffic across the cluster: each daemon owns
	// the byte share of the gossips its hosted nodes initiated.
	row := d.clusterQueryBytes(m.Qid)
	resp.Forwarded = row.Forwarded
	resp.Returned = row.Returned
	resp.PartialResults = row.PartialResults
	resp.Maintenance = row.Maintenance
	return resp
}

// clusterQueryBytes sums one query's wire-layer byte attribution across
// every daemon. Called without the daemon lock; peers answer from brief
// critical sections.
func (d *Daemon) clusterQueryBytes(qid uint64) wire.QueryStat {
	total := wire.QueryStat{Qid: qid}
	add := func(row *wire.QueryStat) {
		total.Forwarded += row.Forwarded
		total.Returned += row.Returned
		total.PartialResults += row.PartialResults
		total.Maintenance += row.Maintenance
	}
	d.mu.Lock()
	if row := d.qstats[qid]; row != nil {
		add(row)
	}
	d.mu.Unlock()
	for i := range d.cfg.Addrs {
		if i == d.cfg.Index {
			continue
		}
		resp, err := d.call(i, planeGateway, &wire.Stats{})
		if err != nil {
			continue
		}
		sr, ok := resp.(*wire.StatsResp)
		if !ok {
			continue
		}
		for i := range sr.Queries {
			if sr.Queries[i].Qid == qid {
				add(&sr.Queries[i])
			}
		}
	}
	return total
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
	}
	planes := []*wire.PlaneStat{&resp.Data, &resp.Ctrl, &resp.Gateway, &resp.Served}
	for i := range d.counters {
		planes[i].Msgs = d.counters[i].msgs.Load()
		planes[i].Bytes = d.counters[i].bytes.Load()
		resp.WireMsgs += planes[i].Msgs
		resp.WireBytes += planes[i].Bytes
	}
	for _, qid := range d.qsOrder {
		row := *d.qstats[qid]
		if qr := d.runs[qid]; qr != nil {
			row.Done = qr.Done()
		}
		resp.Queries = append(resp.Queries, row)
	}
	return resp
}
