package peer

import (
	"fmt"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"p3q/internal/core"
	"p3q/internal/obs"
	"p3q/internal/tagging"
	"p3q/internal/trace"
	"p3q/internal/wire"
)

// Config describes one daemon's place in a cluster. Every daemon of a
// cluster must be constructed from the same Addrs and Gen values and the
// same Engine protocol parameters: the replicas are only interchangeable
// when the whole deterministic universe matches, and the Hello handshake
// rejects any peer whose sums differ. Engine.Workers is free.
type Config struct {
	// Index is this daemon's position in Addrs; daemon 0 is the lead.
	Index int
	// Addrs lists every daemon's address, in daemon-index order.
	Addrs []string
	// Gen regenerates the shared dataset locally — daemons never ship
	// profile bits, they agree on the generator.
	Gen trace.GenParams
	// Engine configures the replica. Latency must be nil: the wire
	// protocol is cycle-aligned (every message lands in its own cycle);
	// so must CAssign, as the handshake does not pin per-node capacities.
	Engine core.Config
	// ConnectTimeout bounds how long Connect waits for peers to come up.
	// Zero means 10 seconds.
	ConnectTimeout time.Duration
}

// hostedRange returns the contiguous node range daemon i hosts out of n.
func hostedRange(users, n, i int) (lo, hi tagging.UserID) {
	return tagging.UserID(i * users / n), tagging.UserID((i + 1) * users / n)
}

// fetchKey identifies a direct fetch by its requester and owner.
type fetchKey struct{ requester, owner tagging.UserID }

// eagerKey identifies an eager gossip within a cycle.
type eagerKey struct {
	qid       uint64
	initiator tagging.UserID
}

// partialKey identifies one partial-result delivery within a cycle.
type partialKey = eagerKey

// cycleState is everything a daemon knows about the cycle it stepped
// last: the capture (immutable once built, the lazy one indexed by
// initiator) and the responder-side state kept beside it. It is replaced
// wholesale at each step; the lead steps cycle N+1 only after every daemon
// acked cycle N, so no exchange for cycle N runs after cycle N+1 steps.
type cycleState struct {
	seq  uint64
	kind uint8

	lazy  *core.LazyCapture
	eager *core.EagerCapture

	// fetches holds the offer each direct fetch of a hosted owner expects,
	// deleted when served: a random view holds distinct owners, so a
	// requester fetches an owner at most once per cycle.
	fetches map[fetchKey]tagging.DigestRef
	// pairs indexes the eager gossips: a gossip is keyed by (query,
	// initiator), and the canonical pair order is not by initiator.
	pairs map[eagerKey]*core.EagerPairCap

	// Partial-result collection for hosted queriers: the exchange phase
	// ends only after every delivery the capture owes this daemon has
	// arrived (or timed out into a divergence). received holds owed keys
	// only, so a stray message can never stand in for a missing one.
	expected     int
	received     map[partialKey]struct{}
	partialsDone chan struct{}
}

// Daemon is one p3qd peer: a full engine replica plus the wire protocol
// endpoints for the contiguous node range it hosts.
type Daemon struct {
	cfg    Config
	lo, hi tagging.UserID

	eng                    *core.Engine
	paramsSum, profilesSum uint64 // eng.HandshakeSums, which Hello compares

	tr Transport
	ln net.Listener
	// links are the one way to reach each peer, whatever the purpose:
	// every outgoing conversation goes through call and gets a connection
	// of its own, so a Step parked for a member's whole step and exchange
	// phase delays nothing else bound for that member.
	links    []*link // by daemon index; nil at own index
	counters [numPlanes]wireCounters
	serving  sync.WaitGroup
	accepted connSet

	// obs observes the replica: sim-plane counters mirror engine state,
	// host-plane histograms time the phases. Attached at Start; all
	// registry access races with the engine, so readers take d.mu.
	obs *obs.Registry

	// httpLn serves the opt-in /metrics + pprof endpoint, nil unless
	// StartHTTP was called.
	httpLn net.Listener

	// leadMu serializes the lead's cluster operations: cycle broadcasts
	// and query issues never interleave, which is what makes every
	// replica execute the identical operation sequence.
	leadMu sync.Mutex

	// mu guards the replica and all mutable daemon state. It is never
	// held across an outgoing call — handlers and exchange loops read
	// what they need under mu, release it, then speak on the wire — so
	// a handler that needs mu waits for a critical section, never for
	// another daemon.
	mu      sync.Mutex
	cycle   *cycleState
	stepped chan struct{} // closed and replaced each time a step installs a cycle

	divergence atomic.Uint64

	readyOnce sync.Once
	ready     chan struct{} // closed when Connect completes the mesh

	stopOnce sync.Once
	stopCh   chan struct{}
}

// New builds a daemon. Call Start to bring it up and Connect to join the
// mesh.
func New(cfg Config, tr Transport) (*Daemon, error) {
	if len(cfg.Addrs) == 0 {
		return nil, fmt.Errorf("peer: empty address list")
	}
	if cfg.Index < 0 || cfg.Index >= len(cfg.Addrs) {
		return nil, fmt.Errorf("peer: index %d outside the %d-daemon cluster", cfg.Index, len(cfg.Addrs))
	}
	if cfg.Engine.Latency != nil {
		return nil, fmt.Errorf("peer: the wire protocol is cycle-aligned; Engine.Latency must be nil")
	}
	if cfg.Engine.CAssign != nil {
		return nil, fmt.Errorf("peer: the Hello handshake does not pin per-node capacities; Engine.CAssign must be nil")
	}
	lo, hi := hostedRange(cfg.Gen.Users, len(cfg.Addrs), cfg.Index)
	d := &Daemon{
		cfg:     cfg,
		lo:      lo,
		hi:      hi,
		tr:      tr,
		links:   make([]*link, len(cfg.Addrs)),
		stepped: make(chan struct{}),
		ready:   make(chan struct{}),
		stopCh:  make(chan struct{}),
	}
	for i, addr := range cfg.Addrs {
		if i != cfg.Index {
			dial := func() (net.Conn, error) { return tr.Dial(addr) }
			d.links[i] = &link{from: cfg.Index, to: i, dial: dial, timeout: callTimeout}
		}
	}
	return d, nil
}

// Start regenerates the dataset, bootstraps the replica, and begins
// serving the wire protocol on this daemon's address.
func (d *Daemon) Start() error {
	d.eng = core.New(trace.Generate(d.cfg.Gen), d.cfg.Engine)
	d.paramsSum, d.profilesSum = d.eng.HandshakeSums()
	// Always-on telemetry: attaching the registry is fingerprint-neutral
	// (pinned by core's invariance tests), and the stats/metrics surfaces
	// read from it.
	d.obs = obs.New()
	d.eng.SetObs(d.obs)
	d.eng.Bootstrap()
	ln, err := d.tr.Listen(d.cfg.Addrs[d.cfg.Index])
	if err != nil {
		return fmt.Errorf("peer: daemon %d listen: %w", d.cfg.Index, err)
	}
	d.ln = ln
	d.serving.Add(1)
	go serveListener(ln, &d.counters[planeServed], d.handle, &d.serving, &d.accepted)
	return nil
}

// Connect performs the Hello handshake with every other daemon, retrying
// until the peer is up or the timeout elapses. The handshake pins the
// peer, not the connection: connections a link opens later carry no Hello,
// so the bytes of a run do not depend on how many the scheduler made it
// open.
func (d *Daemon) Connect() error {
	deadline := time.Now().Add(d.connectTimeout())
	hello := &wire.Hello{
		Index:      uint32(d.cfg.Index),
		Lo:         uint32(d.lo),
		Hi:         uint32(d.hi),
		Users:      uint32(d.cfg.Gen.Users),
		Seed:       d.cfg.Engine.Seed,
		ConfigSum:  d.paramsSum,
		DatasetSum: d.profilesSum,
	}
	for i, l := range d.links {
		if l == nil {
			continue
		}
		resp, err := d.call(i, planeData, hello)
		for err != nil && time.Now().Before(deadline) {
			time.Sleep(50 * time.Millisecond) // the peer may still be starting
			resp, err = d.call(i, planeData, hello)
		}
		if err != nil {
			return err
		}
		ack, ok := resp.(*wire.HelloAck)
		if !ok {
			return fmt.Errorf("peer: handshake with daemon %d: unexpected %T", i, resp)
		}
		if !ack.OK {
			return fmt.Errorf("peer: daemon %d rejected handshake: %s", i, ack.Reason)
		}
		if int(ack.Index) != i {
			return fmt.Errorf("peer: dialed daemon %d but reached daemon %d", i, ack.Index)
		}
	}
	d.readyOnce.Do(func() { close(d.ready) })
	return nil
}

// connectTimeout is Config.ConnectTimeout with its default applied.
func (d *Daemon) connectTimeout() time.Duration {
	if d.cfg.ConnectTimeout == 0 {
		return 10 * time.Second
	}
	return d.cfg.ConnectTimeout
}

// waitReady holds an incoming lockstep request until this daemon's own
// Connect has completed the mesh, bounded by the connect timeout. It
// reports false if the daemon is shut down or never finishes connecting.
func (d *Daemon) waitReady() bool {
	timeout := time.NewTimer(d.connectTimeout())
	defer timeout.Stop()
	select {
	case <-d.ready:
		return true
	case <-d.stopCh:
		return false
	case <-timeout.C:
		return false
	}
}

// connected fails until Connect has pinned every peer: cluster operations
// must never silently run on a subset of the replicas, or the replicas
// stop being replicas.
func (d *Daemon) connected() error {
	select {
	case <-d.ready:
		return nil
	default:
		return fmt.Errorf("peer: daemon %d has not connected to its peers yet", d.cfg.Index)
	}
}

// call runs one conversation with daemon i on a connection of its own
// (see link) and tallies the request on plane, the reason it was sent.
func (d *Daemon) call(i, plane int, req wire.Msg) (wire.Msg, error) {
	return d.links[i].call(&d.counters[plane], req)
}

// Close tears the daemon down: listener, peer links, serving goroutines.
func (d *Daemon) Close() {
	d.stopOnce.Do(func() { close(d.stopCh) })
	if d.ln != nil {
		if err := d.ln.Close(); err != nil {
			_ = err // listener already closed
		}
	}
	if d.httpLn != nil {
		if err := d.httpLn.Close(); err != nil {
			_ = err // telemetry listener already closed
		}
	}
	for _, l := range d.links {
		if l != nil {
			l.open.closeAll()
		}
	}
	d.accepted.closeAll()
	d.serving.Wait()
}

// ShutdownRequested is closed when a wire Shutdown arrives; cmd/p3qd
// exits on it.
func (d *Daemon) ShutdownRequested() <-chan struct{} { return d.stopCh }

// Divergence returns how many wire responses contradicted this daemon's
// replica so far. A healthy cluster stays at zero forever.
func (d *Daemon) Divergence() uint64 { return d.divergence.Load() }

// Engine exposes the replica for tests and metrics; callers must not
// mutate it.
func (d *Daemon) Engine() *core.Engine { return d.eng }

func (d *Daemon) hosts(u tagging.UserID) bool { return u >= d.lo && u < d.hi }

// daemonOf returns the index of the daemon hosting u.
func (d *Daemon) daemonOf(u tagging.UserID) int {
	n := len(d.cfg.Addrs)
	for i := 0; i < n; i++ {
		lo, hi := hostedRange(d.cfg.Gen.Users, n, i)
		if u >= lo && u < hi {
			return i
		}
	}
	return 0
}

// ---------------------------------------------------------------------
// Lead-side cycle driving.

var errNotLead = fmt.Errorf("peer: only the lead daemon (index 0) drives cycles")

// RunLazyCycle steps the whole cluster through one lazy cycle: a Step
// broadcast makes every daemon advance its replica and speak its hosted
// initiators' exchanges, and the cycle ends when every daemon has acked.
func (d *Daemon) RunLazyCycle() error { return d.runCycle(wire.StepLazy) }

// RunEagerCycle steps the whole cluster through one eager cycle.
func (d *Daemon) RunEagerCycle() error { return d.runCycle(wire.StepEager) }

// RunLazyCycles runs n lazy cycles back to back.
func (d *Daemon) RunLazyCycles(n int) error {
	for i := 0; i < n; i++ {
		if err := d.RunLazyCycle(); err != nil {
			return err
		}
	}
	return nil
}

func (d *Daemon) runCycle(kind uint8) error {
	if d.cfg.Index != 0 {
		return errNotLead
	}
	d.leadMu.Lock()
	defer d.leadMu.Unlock()

	if err := d.connected(); err != nil {
		return err
	}

	// Every daemon steps and runs its exchanges concurrently, calling into
	// the others; a request that reaches a daemon before its own step of
	// the cycle waits for that step. A Step call parks on its connection
	// for the member's whole phase. Daemons never restore, so the cycle
	// about to step is numbered by the replica's cycle count.
	d.mu.Lock()
	seq := uint64(d.eng.LazyCycles() + d.eng.EagerCycles())
	d.mu.Unlock()
	errs := make(chan error, len(d.links)-1)
	for i := 1; i < len(d.links); i++ {
		go func() {
			resp, err := d.call(i, planeCtrl, &wire.Step{Kind: kind, Seq: seq})
			if ack, ok := resp.(*wire.StepAck); err == nil && (!ok || ack.Seq != seq) {
				err = fmt.Errorf("peer: daemon %d stepped out of lockstep: %+v (want seq %d)", i, resp, seq)
			}
			errs <- err
		}()
	}
	ownErr := d.exchangePhase(d.stepLocal(kind))
	for i := 1; i < len(d.links); i++ {
		if err := <-errs; err != nil && ownErr == nil {
			ownErr = err
		}
	}
	return ownErr
}

// SubmitQuery issues a query on every replica of the cluster and returns
// the (cluster-wide identical) query ID. Lead only; members forward wire
// submissions here.
func (d *Daemon) SubmitQuery(q trace.Query) (uint64, error) {
	if d.cfg.Index != 0 {
		return 0, errNotLead
	}
	d.leadMu.Lock()
	defer d.leadMu.Unlock()
	if err := d.connected(); err != nil {
		return 0, err
	}
	qid, err := d.issueLocal(q)
	if err != nil {
		return 0, err
	}
	for i := 1; i < len(d.links); i++ {
		resp, err := d.call(i, planeCtrl, &wire.QueryIssue{Querier: q.Querier, Tags: q.Tags})
		if err != nil {
			return 0, err
		}
		ack, okResp := resp.(*wire.QueryIssueAck)
		if !okResp || !ack.OK {
			return 0, fmt.Errorf("peer: daemon %d failed to issue the query: %+v", i, resp)
		}
		if ack.Qid != qid {
			d.divergence.Add(1)
			return 0, fmt.Errorf("peer: daemon %d assigned qid %d, lead assigned %d — replicas diverged", i, ack.Qid, qid)
		}
	}
	return qid, nil
}

// AllQueriesDone reports whether every query the cluster has issued is
// complete, per this daemon's replica.
func (d *Daemon) AllQueriesDone() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.eng.AllQueriesDone()
}

// RunLead is cmd/p3qd's autonomous driver: warmup lazy cycles, then an
// eager cycle per tick while queries are in flight, and an optional
// background lazy cycle cadence. It returns when the daemon is shut down.
func (d *Daemon) RunLead(warmup int, eagerEvery, lazyEvery time.Duration) error {
	if err := d.RunLazyCycles(warmup); err != nil {
		return err
	}
	eager := time.NewTicker(eagerEvery)
	defer eager.Stop()
	var lazyC <-chan time.Time
	if lazyEvery > 0 {
		lazy := time.NewTicker(lazyEvery)
		defer lazy.Stop()
		lazyC = lazy.C
	}
	for {
		select {
		case <-d.stopCh:
			return nil
		case <-eager.C:
			if !d.AllQueriesDone() {
				if err := d.RunEagerCycle(); err != nil {
					return err
				}
			}
		case <-lazyC:
			if err := d.RunLazyCycle(); err != nil {
				return err
			}
		}
	}
}

// ---------------------------------------------------------------------
// Step phase.

// stepLocal advances the replica one cycle, installs the new cycle state
// and releases the requests waiting for it.
func (d *Daemon) stepLocal(kind uint8) *cycleState {
	d.mu.Lock()
	defer d.mu.Unlock()
	cs := &cycleState{kind: kind, partialsDone: make(chan struct{})}
	if kind == wire.StepLazy {
		cp := d.eng.LazyCycleCaptured()
		cs.seq = cp.Seq
		cs.lazy = cp
		cs.fetches = make(map[fetchKey]tagging.DigestRef)
		for u := range cp.Tops {
			for _, f := range cp.Tops[u].Fetches {
				if d.hosts(f.Owner) {
					cs.fetches[fetchKey{tagging.UserID(u), f.Owner}] = f
				}
			}
		}
	} else {
		cp := d.eng.EagerCycleCaptured()
		cs.seq = cp.Seq
		cs.eager = cp
		cs.pairs = make(map[eagerKey]*core.EagerPairCap, len(cp.Pairs))
		for i := range cp.Pairs {
			pc := &cp.Pairs[i]
			cs.pairs[eagerKey{pc.Qid, pc.Initiator}] = pc
			if d.owed(pc) {
				cs.expected++
			}
		}
		cs.received = make(map[partialKey]struct{}, cs.expected)
	}
	if cs.expected == 0 {
		close(cs.partialsDone)
	}
	d.cycle = cs
	close(d.stepped)
	d.stepped = make(chan struct{})
	return cs
}

// awaitCycle returns the installed cycle state once this daemon has
// stepped cycle seq: a peer's request for the cycle can arrive before the
// daemon's own Step does. The wait is bounded by callTimeout and released
// by Close; what it returns then is the caller's to reject.
func (d *Daemon) awaitCycle(seq uint64) *cycleState {
	d.mu.Lock()
	cs, stepped := d.cycle, d.stepped
	d.mu.Unlock()
	if cs != nil && cs.seq >= seq {
		return cs // the common case arms no timer
	}
	timeout := time.NewTimer(callTimeout)
	defer timeout.Stop()
	for cs == nil || cs.seq < seq {
		select {
		case <-stepped:
		case <-d.stopCh:
			return cs
		case <-timeout.C:
			return cs
		}
		d.mu.Lock()
		cs, stepped = d.cycle, d.stepped
		d.mu.Unlock()
	}
	return cs
}

// issueLocal issues a query on the replica. The querier comes off the wire
// (gateway submits on the lead, QueryIssue on members), so it is checked
// against the population before the engine indexes by it.
func (d *Daemon) issueLocal(q trace.Query) (uint64, error) {
	if int(q.Querier) >= d.cfg.Gen.Users {
		return 0, fmt.Errorf("peer: querier %d outside population of %d", q.Querier, d.cfg.Gen.Users)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	qr := d.eng.IssueQuery(q)
	if qr == nil {
		return 0, fmt.Errorf("peer: querier %d is offline", q.Querier)
	}
	return qr.ID, nil
}

// ---------------------------------------------------------------------
// Exchange phase.

// exchangePhase speaks the stepped cycle's exchanges for this daemon's
// hosted initiators and waits for the partial results owed to its hosted
// queriers. Each owed delivery that never arrived is charged as one
// divergence. The replica's QueryRun already holds the merged answer
// (Algorithm 4); every delivery that did arrive was checked against the
// capture in acceptPartial.
func (d *Daemon) exchangePhase(cs *cycleState) error {
	if cs.kind == wire.StepLazy {
		return d.runLazyExchanges(cs)
	}
	err := d.runEagerExchanges(cs)
	timeout := time.NewTimer(30 * time.Second)
	defer timeout.Stop()
	select {
	case <-cs.partialsDone:
	case <-timeout.C:
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	for i := range cs.eager.Pairs {
		pc := &cs.eager.Pairs[i]
		if _, ok := cs.received[partialKey{pc.Qid, pc.Initiator}]; d.owed(pc) && !ok {
			d.divergence.Add(1)
		}
	}
	return err
}

// runLazyExchanges walks this daemon's hosted initiators and speaks every
// cross-daemon exchange of theirs that the capture holds. Responses are
// verified against the local capture — the replica already knows what the
// partner must answer.
func (d *Daemon) runLazyExchanges(cs *cycleState) error {
	for u := d.lo; u < d.hi; u++ {
		if v := &cs.lazy.Views[u]; v.HasPartner && !d.hosts(v.Partner) {
			resp, err := d.call(d.daemonOf(v.Partner), planeData, &wire.ViewExchangeReq{
				Seq: cs.seq, Initiator: u, Partner: v.Partner, Buf: v.BufA,
			})
			if err != nil {
				return err
			}
			vr, ok := resp.(*wire.ViewExchangeResp)
			if !ok || !slices.Equal(vr.Buf, v.BufB) {
				d.divergence.Add(1)
			}
		}
		t := &cs.lazy.Tops[u]
		if t.HasPartner && !d.hosts(t.Partner) {
			resp, err := d.call(d.daemonOf(t.Partner), planeData, &wire.TopExchangeReq{
				Seq: cs.seq, Initiator: u, Partner: t.Partner, Offers: t.OffersA,
			})
			if err != nil {
				return err
			}
			tr, ok := resp.(*wire.TopExchangeResp)
			if !ok || !slices.Equal(tr.Offers, t.OffersB) {
				d.divergence.Add(1)
			}
		}
		for _, f := range t.Fetches {
			if d.hosts(f.Owner) {
				continue
			}
			resp, err := d.call(d.daemonOf(f.Owner), planeData, &wire.DirectFetchReq{
				Seq: cs.seq, Requester: u, Owner: f.Owner,
			})
			if err != nil {
				return err
			}
			fr, ok := resp.(*wire.DirectFetchResp)
			if !ok || fr.Offer != f {
				d.divergence.Add(1)
			}
		}
	}
	return nil
}

// runEagerExchanges walks the capture in canonical pair order. For each
// hosted initiator with a remote destination it speaks the full gossip
// conversation; the destination's daemon sends the partial result to the
// querier's daemon as part of serving the forward. Pairs whose
// destination is also local produce only the partial-result delivery.
func (d *Daemon) runEagerExchanges(cs *cycleState) error {
	for i := range cs.eager.Pairs {
		pc := &cs.eager.Pairs[i]
		if !d.hosts(pc.Initiator) || !pc.Ok {
			continue
		}
		if !d.hosts(pc.Dest) {
			resp, err := d.call(d.daemonOf(pc.Dest), planeData, &wire.EagerForwardReq{
				Seq:       cs.seq,
				Qid:       pc.Qid,
				Initiator: pc.Initiator,
				Dest:      pc.Dest,
				Querier:   pc.Querier,
				Tags:      pc.Tags,
				Branch:    pc.Branch,
				Offers:    pc.OffersA,
			})
			if err != nil {
				return err
			}
			fr, ok := resp.(*wire.EagerForwardResp)
			if !ok || !slices.Equal(fr.Returned, pc.Returned) || !slices.Equal(fr.Offers, pc.OffersB) {
				d.divergence.Add(1)
			}
			continue
		}
		if pc.Delivered {
			if err := d.deliverPartial(cs, pc); err != nil {
				return err
			}
		}
	}
	return nil
}

// deliverPartial carries one destination-resolved partial result list to
// the querier's daemon (or straight into the local collection when this
// daemon hosts the querier too).
func (d *Daemon) deliverPartial(cs *cycleState, pc *core.EagerPairCap) error {
	msg := &wire.PartialResult{
		Seq:         cs.seq,
		Qid:         pc.Qid,
		Initiator:   pc.Initiator,
		From:        pc.Dest,
		FoundOwners: pc.FoundOwners,
		Entries:     pc.Plist,
	}
	if d.hosts(pc.Querier) {
		d.acceptPartial(msg)
		return nil
	}
	resp, err := d.call(d.daemonOf(pc.Querier), planeData, msg)
	if err != nil {
		return err
	}
	if _, ok := resp.(*wire.PartialResultAck); !ok {
		d.divergence.Add(1)
	}
	return nil
}

// owed reports whether pc's partial result must arrive at this daemon:
// the destination resolved something and this daemon hosts the querier.
func (d *Daemon) owed(pc *core.EagerPairCap) bool {
	return pc.Ok && pc.Delivered && d.hosts(pc.Querier)
}

// acceptPartial records an arriving partial result for the cycle,
// verifying it against the local replica's capture of the same gossip.
// Only a delivery the capture owes is recorded: anything else is a
// divergence and leaves the wait for the owed ones untouched.
func (d *Daemon) acceptPartial(msg *wire.PartialResult) {
	cs := d.awaitCycle(msg.Seq)
	d.mu.Lock()
	defer d.mu.Unlock()
	if cs == nil || cs.kind != wire.StepEager || cs.seq != msg.Seq {
		d.divergence.Add(1)
		return
	}
	key := partialKey{msg.Qid, msg.Initiator}
	pc := cs.pairs[key]
	if pc == nil || !d.owed(pc) {
		d.divergence.Add(1)
		return
	}
	if pc.Dest != msg.From || !slices.Equal(msg.FoundOwners, pc.FoundOwners) || !slices.Equal(msg.Entries, pc.Plist) {
		d.divergence.Add(1)
	}
	if _, dup := cs.received[key]; dup {
		d.divergence.Add(1)
		return
	}
	cs.received[key] = struct{}{}
	if len(cs.received) == cs.expected {
		close(cs.partialsDone)
	}
}
