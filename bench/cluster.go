package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"runtime/pprof"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"p3q/internal/core"
	"p3q/internal/peer"
	"p3q/internal/sim"
	"p3q/internal/trace"
	"p3q/internal/wire"
)

const clusterDaemons = 3

// watchdogTimeout bounds every cluster op. The daemon has no RPC
// deadlines, so a deadlocked exchange would otherwise hang the run (and
// the pipeline behind it) for good.
const watchdogTimeout = 30 * time.Second

// errWatchdog marks an op the watchdog gave up on. Its goroutine is still
// parked inside the daemons, so the cluster can be neither used nor
// closed afterwards.
type errWatchdog struct{ what string }

func (e errWatchdog) Error() string {
	return e.what + " missed its watchdog (goroutines dumped to stderr)"
}

// guarded runs op under the watchdog. On expiry it dumps every goroutine
// to dump — README.md shows the signature of a link deadlock — and
// returns errWatchdog while op is still running.
func guarded(timeout time.Duration, dump io.Writer, what string, op func() error) error {
	done := make(chan error, 1) // op's goroutine must not block on a driver that gave up
	go func() { done <- op() }()
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case err := <-done:
		return err
	case <-timer.C:
		fmt.Fprintf(dump, "bench: watchdog: %s still running after %v; goroutines:\n", what, timeout)
		if err := pprof.Lookup("goroutine").WriteTo(dump, 2); err != nil {
			fmt.Fprintf(dump, "bench: watchdog: dumping goroutines: %v\n", err)
		}
		return errWatchdog{what}
	}
}

// frameCap bounds the raw frames kept for the codec replay.
const frameCap = 16 << 20

// tracingTransport wraps the in-memory fabric for the traced pass. It
// times every connection write — a net.Pipe write returns once the reader
// has taken the bytes, so write time is time blocked on the peer — counts
// reads, and tees each connection end's outgoing byte stream (whole
// frames, back to back) for the wire.* replay.
type tracingTransport struct {
	inner *peer.Fabric

	writes, writeNS, reads, bytes atomic.Int64

	mu      sync.Mutex
	streams []*frameStream // one per connection end
	kept    int
}

// frameStream is what one connection end wrote, up to the capture cap.
type frameStream struct {
	buf  bytes.Buffer
	full bool // a write was dropped; nothing may follow it
}

func (t *tracingTransport) Listen(addr string) (net.Listener, error) {
	l, err := t.inner.Listen(addr)
	if err != nil {
		return nil, err
	}
	return &tracingListener{Listener: l, t: t}, nil
}

func (t *tracingTransport) Dial(addr string) (net.Conn, error) {
	c, err := t.inner.Dial(addr)
	if err != nil {
		return nil, err
	}
	return t.wrap(c), nil
}

func (t *tracingTransport) wrap(c net.Conn) net.Conn {
	tc := &tracingConn{Conn: c, t: t, stream: new(frameStream)}
	t.mu.Lock()
	t.streams = append(t.streams, tc.stream)
	t.mu.Unlock()
	return tc
}

type tracingListener struct {
	net.Listener
	t *tracingTransport
}

func (l *tracingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return l.t.wrap(c), nil
}

type tracingConn struct {
	net.Conn
	t      *tracingTransport
	stream *frameStream // guarded by t.mu
}

func (c *tracingConn) Write(p []byte) (int, error) {
	t0 := time.Now()
	n, err := c.Conn.Write(p)
	c.t.writeNS.Add(time.Since(t0).Nanoseconds())
	c.t.writes.Add(1)
	c.t.bytes.Add(int64(n))
	c.t.mu.Lock()
	if !c.stream.full && c.t.kept+n <= frameCap {
		c.stream.buf.Write(p[:n])
		c.t.kept += n
	} else {
		c.stream.full = true
	}
	c.t.mu.Unlock()
	return n, err
}

func (c *tracingConn) Read(p []byte) (int, error) {
	c.t.reads.Add(1)
	return c.Conn.Read(p)
}

// cluster is three daemons on one in-memory fabric, plus one gateway
// client per daemon.
type cluster struct {
	gen     trace.GenParams
	cfg     core.Config
	tr      peer.Transport
	traced  *tracingTransport // nil when tracing is off
	daemons []*peer.Daemon
	clients []*peer.Client

	connectMS float64
}

func (c *cluster) lead() *peer.Daemon { return c.daemons[0] }

func (c *cluster) close() {
	for _, cl := range c.clients {
		cl.Close()
	}
	for _, d := range c.daemons {
		d.Close()
	}
}

// startCluster builds, meshes and warms the cluster of the e2e tier:
// trace.DefaultGenParams and core.DefaultConfig at the workload's
// population.
func (v *env) startCluster(traced bool) (*cluster, error) {
	c := &cluster{gen: trace.DefaultGenParams(v.sz.clusterUsers), cfg: core.DefaultConfig()}
	c.gen.Seed = traceSeed
	c.cfg.Seed = v.seed
	c.cfg.Workers = benchWorkers
	fabric := peer.NewFabric()
	c.tr = fabric
	if traced {
		c.traced = &tracingTransport{inner: fabric}
		c.tr = c.traced
	}
	addrs := make([]string, clusterDaemons)
	for i := range addrs {
		addrs[i] = fmt.Sprintf("daemon-%d", i)
	}
	for i := range addrs {
		d, err := peer.New(peer.Config{Index: i, Addrs: addrs, Gen: c.gen, Engine: c.cfg}, c.tr)
		if err != nil {
			return c, err
		}
		c.daemons = append(c.daemons, d)
		if err := d.Start(); err != nil {
			return c, err
		}
	}
	t0 := time.Now()
	for _, d := range c.daemons {
		if err := d.Connect(); err != nil {
			return c, err
		}
	}
	c.connectMS = float64(time.Since(t0).Nanoseconds()) / 1e6
	for _, addr := range addrs {
		cl, err := peer.DialClient(c.tr, addr)
		if err != nil {
			return c, err
		}
		c.clients = append(c.clients, cl)
	}
	err := guarded(watchdogTimeout, v.stderr, "cluster warm-up", func() error {
		return c.lead().RunLazyCycles(v.sz.clusterWarm)
	})
	return c, err
}

// wireTotals sums the daemons' counters: wire volume on the links each
// daemon dialed (data, control, gateway; the responses on those links are
// tallied by the serving daemon together with its gateway clients', so
// they are left out), and the time the replicas spent stepping.
type wireTotals struct {
	frames, dataBytes, ctrlBytes, gatewayBytes float64
	stepMS                                     float64
}

func (t wireTotals) bytes() float64 { return t.dataBytes + t.ctrlBytes + t.gatewayBytes }

// clusterRun is the state of one pass over a cluster workload.
type clusterRun struct {
	v *env
	o passOpts
	c *cluster
	p *pass
	m *meter

	cycleMS []float64 // wall time of every timed cluster cycle
	t0      wireTotals
}

func (r *clusterRun) totals() (wireTotals, error) {
	var t wireTotals
	for _, cl := range r.c.clients {
		var st *wire.StatsResp
		end := r.o.rec.span("Client.Stats")
		err := guarded(watchdogTimeout, r.v.stderr, "Client.Stats", func() (err error) {
			st, err = cl.Stats()
			return err
		})
		end()
		if err != nil {
			return t, err
		}
		t.frames += float64(st.Data.Msgs + st.Ctrl.Msgs + st.Gateway.Msgs)
		t.dataBytes += float64(st.Data.Bytes)
		t.ctrlBytes += float64(st.Ctrl.Bytes)
		t.gatewayBytes += float64(st.Gateway.Bytes)
		t.stepMS += float64(st.PlanNanos+st.CommitNanos) / 1e6
	}
	return t, nil
}

// cycle steps the whole cluster once from the lead, under the watchdog.
func (r *clusterRun) cycle(kind uint8) error {
	name, step := "peer.RunLazyCycle", r.c.lead().RunLazyCycle
	if kind == wire.StepEager {
		name, step = "peer.RunEagerCycle", r.c.lead().RunEagerCycle
	}
	t0 := time.Now()
	end := r.o.rec.span(name)
	err := guarded(watchdogTimeout, r.v.stderr, name, step)
	end()
	r.cycleMS = append(r.cycleMS, float64(time.Since(t0).Nanoseconds())/1e6)
	return err
}

// linkCounts attaches what the cluster's connections carried since the
// last call to the open op span: that work happens on the daemons'
// goroutines, where the driver records no spans.
func (r *clusterRun) linkCounts() {
	if t := r.c.traced; t != nil {
		r.o.rec.count("conn.writes", float64(t.writes.Swap(0)))
		r.o.rec.count("conn.reads", float64(t.reads.Swap(0)))
		r.o.rec.count("conn.bytes", float64(t.bytes.Swap(0)))
	}
}

// prefixDone reads the daemons' counters at the end of the prefix and
// derives the exact per-op and per-cycle wire volumes from them.
func (r *clusterRun) prefixDone() error {
	p := r.p
	r.m.markPrefix(p)
	t1, err := r.totals()
	if err != nil {
		return err
	}
	ops, cycles := float64(p.ops), float64(len(r.cycleMS))
	p.setExact("bytes_per_op", (t1.bytes()-r.t0.bytes())/ops)
	p.setExact("peer.frames_per_cycle", (t1.frames-r.t0.frames)/cycles)
	p.setExact("peer.data_bytes_per_cycle", (t1.dataBytes-r.t0.dataBytes)/cycles)
	p.setExact("peer.ctrl_bytes_per_cycle", (t1.ctrlBytes-r.t0.ctrlBytes)/cycles)
	p.setExact("peer.gateway_bytes_per_op", (t1.gatewayBytes-r.t0.gatewayBytes)/ops)
	return nil
}

// clusterPass is what the two cluster workloads share: set-up, counter
// readings around the measured section, the common metrics and checks,
// tear-down. body runs the ops and calls prefixDone after the last op of
// the prefix; check replays the schedule on a bare engine, fails the ops
// whose outputs differ and returns the reference's cycle times.
func (v *env) clusterPass(o passOpts, prefix int, body func(r *clusterRun) error, check func(r *clusterRun, ref *core.Engine) []float64) *pass {
	r := &clusterRun{v: v, o: o, p: newPass()}
	p := r.p
	var err error
	p.vals["setup_s"] = medianSetup(o.setups, func() {
		if err == nil {
			r.c, err = v.startCluster(o.rec != nil)
		}
	}, func() {
		if err == nil {
			r.c.close()
			r.c = nil
		}
	})
	if err == nil {
		err = r.measure(body, check)
	}
	if err != nil {
		var hung errWatchdog
		p.aborted = errors.As(err, &hung)
		// The op that aborted the run failed, and so did every op of the
		// prefix that was never attempted.
		completed := max(p.ops-1, 0)
		p.ops = max(p.ops, prefix)
		p.fail(p.ops-completed, "%v", err)
	}
	if r.c != nil && !p.aborted {
		r.c.close()
	}
	return p
}

func (r *clusterRun) measure(body func(r *clusterRun) error, check func(r *clusterRun, ref *core.Engine) []float64) error {
	p, c := r.p, r.c
	p.vals["peer.connect_ms"] = c.connectMS
	var err error
	if r.t0, err = r.totals(); err != nil {
		return err
	}
	if c.traced != nil {
		c.traced.writeNS.Store(0)
	}
	r.m = startMeter(r.o.seconds)
	if err := body(r); err != nil {
		return err
	}
	r.m.finish(p)
	t2, err := r.totals()
	if err != nil {
		return err
	}
	cycles := float64(len(r.cycleMS))
	p.vals["peer.cycle_ms_p50"] = median(r.cycleMS)
	p.vals["peer.replica_step_ms_per_cycle"] = ratio(t2.stepMS-r.t0.stepMS, cycles)
	p.vals["peer.exchange_ms_per_cycle"] = mean(r.cycleMS) - p.vals["peer.replica_step_ms_per_cycle"]
	if c.traced != nil {
		p.vals["peer.conn_write_block_ms_per_cycle"] = ratio(float64(c.traced.writeNS.Load())/1e6, cycles)
	}
	for i, d := range c.daemons {
		n := d.Divergence()
		p.vals["peer.divergence"] += float64(n)
		if n != 0 {
			p.fail(p.ops-p.failed, "daemon %d recorded %d divergences from its replica", i, n)
		}
	}

	t0 := time.Now()
	ds := trace.Generate(c.gen)
	p.vals["trace.generate_s"] = time.Since(t0).Seconds()
	ref := core.New(ds, c.cfg)
	ref.Bootstrap()
	for i := 0; i < r.v.sz.clusterWarm; i++ {
		ref.LazyCycle()
	}
	refCycleMS := check(r, ref)
	p.vals["peer.engine_ref_cycle_ms_p50"] = median(refCycleMS)
	p.vals["peer.cluster_over_engine_ratio"] = ratio(p.vals["peer.cycle_ms_p50"], p.vals["peer.engine_ref_cycle_ms_p50"])
	if c.traced != nil {
		if err := replayFrames(c.traced, p); err != nil {
			p.fail(p.ops-p.failed, "wire replay: %v", err)
		}
	}
	return nil
}

// runClusterLazy times lazy cycles of the whole cluster; op = one cycle.
func runClusterLazy(v *env, o passOpts) *pass {
	var atPrefix []sim.Traffic // each replica's simulated traffic when the prefix ended
	return v.clusterPass(o, v.sz.clusterLazyPrefix, func(r *clusterRun) error {
		for r.p.ops < v.sz.clusterLazyPrefix || !r.m.expired() {
			var err error
			endOp := o.rec.beginOp("op.cluster_lazy_cycle")
			r.m.addOp(r.m.timed(func() { err = r.cycle(wire.StepLazy) }))
			r.linkCounts()
			endOp()
			r.p.ops++
			if err != nil {
				return err
			}
			if r.p.ops == v.sz.clusterLazyPrefix {
				for _, d := range r.c.daemons {
					atPrefix = append(atPrefix, d.Engine().Network().Total())
				}
				if err := r.prefixDone(); err != nil {
					return err
				}
			}
		}
		return nil
	}, func(r *clusterRun, ref *core.Engine) []float64 {
		var refMS []float64
		for i := 0; i < v.sz.clusterLazyPrefix; i++ {
			t0 := time.Now()
			ref.LazyCycle()
			refMS = append(refMS, float64(time.Since(t0).Nanoseconds())/1e6)
		}
		for i, got := range atPrefix {
			if got != ref.Network().Total() {
				r.p.fail(r.p.ops-r.p.failed, "daemon %d's replica sent %d simulated bytes over the prefix, the bare engine %d",
					i, got.TotalBytes(), ref.Network().Total().TotalBytes())
			}
		}
		return refMS
	})
}

// maxCyclesPerQuery bounds a query that never settles on the cluster.
const maxCyclesPerQuery = 200

// runClusterQuery is the operator's latency path as a closed loop: one
// client, one query in flight. Each query is submitted through member
// daemon 1's gateway, then the lead steps eager cycles and the client
// polls Status after every cycle until the query is done. op = one
// query, from the start of Submit to the poll that sees Done.
func runClusterQuery(v *env, o passOpts) *pass {
	type answer struct {
		q  trace.Query
		st *wire.QueryStatusResp
	}
	var answers []answer
	return v.clusterPass(o, v.sz.clusterQueryPrefix, func(r *clusterRun) error {
		// The query set is pinned like the trace: a run gets through
		// about a hundred queries, too few for their sample to average
		// out (from seed to seed it moved bytes_per_op by 5% and
		// op_ms_p50 by 15%). -seed still drives the replicas' randomness.
		queries := trace.GenerateQueries(r.c.lead().Engine().Dataset(), traceSeed)
		client := r.c.clients[1]
		// One query per user, taken in a stride that walks all three
		// hosted ranges instead of draining daemon 0's first.
		stride := spreadStride(len(queries))
		for i := 0; i < len(queries) && (i < v.sz.clusterQueryPrefix || !r.m.expired()); i++ {
			q := queries[i*stride%len(queries)]
			var st *wire.QueryStatusResp
			var err error
			endOp := o.rec.beginOp("op.cluster_query")
			r.m.addOp(r.m.timed(func() {
				var qid uint64
				end := o.rec.span("Client.Submit")
				err = guarded(watchdogTimeout, v.stderr, "Client.Submit", func() (err error) {
					qid, err = client.Submit(q.Querier, q.Tags)
					return err
				})
				end()
				for cycles := 0; err == nil && (st == nil || !st.Done); cycles++ {
					if cycles == maxCyclesPerQuery {
						err = fmt.Errorf("query %d not done after %d cycles", qid, cycles)
						break
					}
					if err = r.cycle(wire.StepEager); err != nil {
						break
					}
					end := o.rec.span("Client.Status")
					err = guarded(watchdogTimeout, v.stderr, "Client.Status", func() (err error) {
						st, err = client.Status(qid)
						return err
					})
					end()
				}
			}))
			r.linkCounts()
			endOp()
			r.p.ops++
			if err != nil {
				return err
			}
			answers = append(answers, answer{q, st})
			if r.p.ops == v.sz.clusterQueryPrefix {
				if err := r.prefixDone(); err != nil {
					return err
				}
			}
		}
		r.p.vals["peer.submit_ms_p50"] = median(o.rec.durationsMS("Client.Submit"))
		r.p.vals["peer.status_ms_p50"] = median(o.rec.durationsMS("Client.Status"))
		return nil
	}, func(r *clusterRun, ref *core.Engine) []float64 {
		var refMS []float64
		for i, a := range answers {
			qr := ref.IssueQuery(a.q)
			for cycles := 0; !qr.Done() && cycles < maxCyclesPerQuery; cycles++ {
				t0 := time.Now()
				ref.EagerCycle()
				refMS = append(refMS, float64(time.Since(t0).Nanoseconds())/1e6)
			}
			b := qr.Bytes()
			switch {
			case a.st.Used != a.st.Needed:
				r.p.fail(1, "query %d: cluster used %d of %d profiles", i, a.st.Used, a.st.Needed)
			case int(a.st.Needed) != qr.ProfilesNeeded() || int(a.st.Cycles) != qr.Cycles():
				r.p.fail(1, "query %d: cluster needed %d profiles in %d cycles, bare engine %d in %d",
					i, a.st.Needed, a.st.Cycles, qr.ProfilesNeeded(), qr.Cycles())
			case !slices.Equal(a.st.Results, qr.Results()):
				r.p.fail(1, "query %d: cluster and bare engine return different results", i)
			case a.st.Forwarded != b.Forwarded || a.st.Returned != b.Returned ||
				a.st.PartialResults != b.PartialResults || a.st.Maintenance != b.Maintenance:
				r.p.fail(1, "query %d traffic: cluster {fwd %d ret %d partial %d maint %d}, bare engine {fwd %d ret %d partial %d maint %d}",
					i, a.st.Forwarded, a.st.Returned, a.st.PartialResults, a.st.Maintenance,
					b.Forwarded, b.Returned, b.PartialResults, b.Maintenance)
			}
		}
		return refMS
	})
}

// spreadStride returns a step coprime with n, so that i*step mod n visits
// every index once.
func spreadStride(n int) int {
	for _, step := range []int{211, 223, 227, 229, 233} {
		if n%step != 0 { // a prime that does not divide n is coprime with it
			return step
		}
	}
	return 1
}

// replayFrames runs the frames the traced pass captured back through the
// codec alone: wire.ReadMsg over every captured stream, wire.WriteMsg of
// every decoded message. A first, untimed walk finds the frame count of
// each stream and checks that re-encoding reproduces the captured bytes.
func replayFrames(t *tracingTransport, p *pass) error {
	t.mu.Lock()
	streams := append([]*frameStream(nil), t.streams...)
	t.mu.Unlock()

	var msgs [][]wire.Msg
	var out bytes.Buffer
	frames, size := 0, 0
	for _, s := range streams {
		raw := s.buf.Bytes()
		out.Reset()
		r, w := wire.NewReader(bytes.NewReader(raw)), wire.NewWriter(&out)
		var decoded []wire.Msg
		for out.Len() < len(raw) {
			msg, err := wire.ReadMsg(r)
			if err != nil {
				if s.full {
					break // the cap cut this stream's last frame short
				}
				return fmt.Errorf("decoding a captured frame: %w", err)
			}
			if err := wire.WriteMsg(w, msg); err != nil {
				return fmt.Errorf("re-encoding a captured %T: %w", msg, err)
			}
			decoded = append(decoded, msg)
		}
		if !bytes.Equal(out.Bytes(), raw[:out.Len()]) {
			return fmt.Errorf("re-encoding %d captured frames wrote different bytes", len(decoded))
		}
		msgs = append(msgs, decoded)
		frames += len(decoded)
		size += out.Len()
	}
	if frames == 0 {
		return fmt.Errorf("no frame was captured")
	}

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	for i, s := range streams {
		r := wire.NewReader(bytes.NewReader(s.buf.Bytes()))
		for range msgs[i] {
			if _, err := wire.ReadMsg(r); err != nil {
				return fmt.Errorf("decoding a captured frame again: %w", err)
			}
		}
	}
	decodeNS := float64(time.Since(t0).Nanoseconds())
	runtime.ReadMemStats(&m1)

	t0 = time.Now()
	for _, decoded := range msgs {
		out.Reset()
		w := wire.NewWriter(&out)
		for _, msg := range decoded {
			if err := wire.WriteMsg(w, msg); err != nil {
				return fmt.Errorf("re-encoding a captured %T: %w", msg, err)
			}
		}
	}
	encodeNS := float64(time.Since(t0).Nanoseconds())

	p.vals["wire.decode_ns_per_frame"] = decodeNS / float64(frames)
	p.vals["wire.encode_ns_per_frame"] = encodeNS / float64(frames)
	p.vals["wire.decode_allocs_per_frame"] = float64(m1.Mallocs-m0.Mallocs) / float64(frames)
	p.vals["wire.bytes_per_frame_mean"] = float64(size) / float64(frames)
	p.vals["wire.codec_MBps"] = 2 * float64(size) / 1e6 / ((decodeNS + encodeNS) / 1e9)
	return nil
}
