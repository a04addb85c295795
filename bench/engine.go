package main

import (
	"bytes"
	"runtime"
	"slices"
	"strings"
	"time"

	"p3q/internal/baseline"
	"p3q/internal/core"
	"p3q/internal/obs"
	"p3q/internal/sim"
	"p3q/internal/tagging"
	"p3q/internal/topk"
	"p3q/internal/trace"
)

// benchWorkers is the planner and shard count of every engine the
// benchmark builds: the two cores of the reference box.
const benchWorkers = 2

// traceSeed pins the generated trace to the tracked benches' of
// bench_test.go. The generator draws the community structure from its
// seed, and that alone moves the bytes a lazy cycle ships by 13% between
// seeds — a difference between datasets that would be charged to the
// run-to-run spread of every metric. The -seed flag therefore varies what
// happens on the trace (bootstrap views, partner choice, the α-split,
// which item each user queries for), not the trace.
const traceSeed = 7

// engineGen is the tracked-bench trace at the workload's population.
func (v *env) engineGen() trace.GenParams {
	gen := trace.DefaultGenParams(v.sz.engineUsers)
	gen.MeanItems = 20
	gen.Seed = traceSeed
	return gen
}

// engineConfig is the tracked-bench engine configuration.
func (v *env) engineConfig(lat sim.LatencyModel) core.Config {
	cfg := core.DefaultConfig()
	cfg.S, cfg.C = v.sz.s, v.sz.c
	cfg.BloomBits, cfg.BloomHashes = 2048, 6
	cfg.Workers = benchWorkers
	cfg.Seed = v.seed
	cfg.Latency = lat
	return cfg
}

// warmEngine is the set-up the engine and checkpoint workloads share:
// generate the trace, build and bootstrap the engine with a telemetry
// registry attached (as the daemons and p3qsim run it) and take it past
// the empty-network cold start.
type warmEngine struct {
	ds   *trace.Dataset
	e    *core.Engine
	reg  *obs.Registry
	genS float64
}

func (v *env) buildEngine(lat sim.LatencyModel) *warmEngine {
	t0 := time.Now()
	ds := trace.Generate(v.engineGen())
	genS := time.Since(t0).Seconds()
	e := core.New(ds, v.engineConfig(lat))
	reg := obs.New()
	e.SetObs(reg)
	e.Bootstrap()
	for i := 0; i < v.sz.warmLazy; i++ {
		e.LazyCycle()
	}
	return &warmEngine{ds: ds, e: e, reg: reg, genS: genS}
}

func (v *env) setupEngine(o passOpts, lat sim.LatencyModel, p *pass) *warmEngine {
	var w *warmEngine
	p.vals["setup_s"] = medianSetup(o.setups, func() { w = v.buildEngine(lat) }, func() { w = nil })
	p.vals["trace.generate_s"] = w.genS
	return w
}

func phaseMS(reg *obs.Registry, ph obs.Phase) float64 {
	return float64(reg.PhaseTotal(ph).Nanoseconds()) / 1e6
}

// runEngineLazy times lazy cycles on the bare engine; op = one cycle.
func runEngineLazy(v *env, o passOpts) *pass {
	p := newPass()
	w := v.setupEngine(o, nil, p)
	e := w.e

	net0 := e.Network().Total()
	plan0, commit0 := phaseMS(w.reg, obs.PhasePlan), phaseMS(w.reg, obs.PhaseCommit)
	m := startMeter(o.seconds)
	for p.ops < v.sz.lazyPrefix || !m.expired() {
		endOp := o.rec.beginOp("op.lazy_cycle")
		m.addOp(m.timed(func() {
			end := o.rec.span("core.LazyCycle")
			e.LazyCycle()
			end()
		}))
		endOp()
		p.ops++
		if p.ops == v.sz.lazyPrefix {
			d := e.Network().Total().Since(net0)
			m.markPrefix(p)
			p.setExact("bytes_per_op", float64(d.TotalBytes())/float64(p.ops))
			p.setExact("core.sim_msgs_per_cycle", float64(d.TotalMsgs())/float64(p.ops))
			// The sim plane of the registry is the engine's own account of
			// the run; spans around the cycles must not move it. (The top
			// 53 bits are what a float64 holds exactly.)
			p.exact["obs.SimFingerprint"] = float64(w.reg.SimFingerprint() >> 11)
		}
	}
	m.finish(p)
	cycles := float64(p.ops)
	p.vals["core.lazy_plan_ms_per_cycle"] = (phaseMS(w.reg, obs.PhasePlan) - plan0) / cycles
	p.vals["core.lazy_commit_ms_per_cycle"] = (phaseMS(w.reg, obs.PhaseCommit) - commit0) / cycles
	_, _, skew, _ := w.reg.CommitSkew()
	p.vals["core.commit_skew_ms_mean"] = float64(skew.Nanoseconds()) / 1e6
	p.vals["core.alloc_bytes_per_node_cycle"] = p.vals["alloc_kb_per_op"] * 1024 / float64(e.Users())

	if o.rec != nil {
		if err := v.lazyRatioProbes(e, p); err != nil {
			p.fail(p.ops-p.failed, "ratio probes: %v", err)
		}
		probeLazyLayers(v, w.ds, e.Config(), p)
	}
	return p
}

// lazyRatioProbes forks the measured engine three ways through its own
// checkpoint — Workers=1, Workers=2, and Workers=2 without a registry —
// and steps the forks in turn, so each ratio compares the same cycles of
// the same run. It is the one place the harness runs on two Ps: what the
// second worker buys is the point of the first ratio.
func (v *env) lazyRatioProbes(e *core.Engine, p *pass) error {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(benchWorkers))
	var snap bytes.Buffer
	if err := e.Snapshot(&snap); err != nil {
		return err
	}
	fork := func(workers int, attach bool) (*core.Engine, error) {
		cfg := e.Config()
		cfg.Workers = workers
		f, err := core.Restore(bytes.NewReader(snap.Bytes()), nil, cfg)
		if err == nil && attach {
			f.SetObs(obs.New())
		}
		return f, err
	}
	w1, err := fork(1, true)
	if err != nil {
		return err
	}
	w2, err := fork(benchWorkers, true)
	if err != nil {
		return err
	}
	bare, err := fork(benchWorkers, false)
	if err != nil {
		return err
	}
	var t1, t2, tBare []float64
	cycle := func(f *core.Engine) float64 {
		t0 := time.Now()
		f.LazyCycle()
		return time.Since(t0).Seconds()
	}
	for i := 0; i < v.sz.probeCycles; i++ {
		t1 = append(t1, cycle(w1))
		t2 = append(t2, cycle(w2))
		tBare = append(tBare, cycle(bare))
	}
	p.vals["core.workers1_over_workers2_ratio"] = ratio(median(t1), median(t2))
	p.vals["obs.attach_overhead_ratio"] = ratio(median(t2), median(tBare))
	return nil
}

// eagerRun is what one pass over an eager workload leaves behind for the
// comparisons between passes.
type eagerRun struct {
	*pass
	results   [][]topk.Entry // final result list per prefix query, issue order
	prefixCyc int            // eager cycles the prefix bursts took
}

// maxCyclesPerBurst bounds a burst that never settles: far above the
// ~10 cycles a 512-query burst needs, so hitting it is a failure, not a
// tail.
const maxCyclesPerBurst = 400

// issued is one query of a burst with what its output check needs: the
// exact top-k reference is taken over the querier's personal network as
// it stood at issue time.
type issued struct {
	q       trace.Query
	run     *core.QueryRun
	members []tagging.UserID
}

// runEager is the pass the two eager workloads share. Queries are issued
// in bursts; each burst runs eager cycles until every query reached full
// recall. op = one query, timed from the start of its burst's issue loop
// to its completion. The harness sees completions only at the end of the
// cycle they happen in, and a cycle lasts hundreds of milliseconds, so it
// spreads each cycle's completions evenly over that cycle: taken raw, the
// median would jump by a whole cycle whenever it crossed a cycle boundary.
// The first eagerPrefix bursts are the prefix; maxBursts caps the run (0:
// until the queries run out).
func (v *env) runEager(o passOpts, lat sim.LatencyModel, maxBursts int) *eagerRun {
	run := &eagerRun{pass: newPass()}
	p := run.pass
	w := v.setupEngine(o, lat, p)
	e := w.e
	queries := trace.GenerateQueries(w.ds, v.seed)

	net0 := e.Network().Total()
	plan0, commit0 := phaseMS(w.reg, obs.PhasePlan), phaseMS(w.reg, obs.PhaseCommit)
	var all []issued
	var cycleMS []float64
	m := startMeter(o.seconds)
	for bursts := 0; len(all) < len(queries) && (bursts < v.sz.eagerPrefix || !m.expired()) && (maxBursts == 0 || bursts < maxBursts); bursts++ {
		first := len(all)
		for _, q := range queries[first:min(first+v.sz.burst, len(queries))] {
			all = append(all, issued{q: q, members: e.Node(q.Querier).PersonalNetwork().Members()})
		}
		burst := all[first:]
		endOp := o.rec.beginOp("op.burst")
		m.timed(func() {
			t0 := time.Now()
			for i := range burst {
				end := o.rec.span("core.IssueQuery")
				burst[i].run = e.IssueQuery(burst[i].q)
				end()
			}
			settled := make([]bool, len(burst))
			pending := len(burst)
			// sweep times the queries that completed since the last sweep,
			// which covered the run up to from.
			sweep := func(from time.Duration) {
				var done []int
				for i := range burst {
					if qr := burst[i].run; !settled[i] && (qr == nil || qr.Done()) {
						settled[i] = true
						done = append(done, i)
					}
				}
				pending -= len(done)
				width := time.Since(t0) - from
				for rank := range done {
					m.addOp(from + time.Duration((float64(rank)+0.5)/float64(len(done))*float64(width)))
				}
			}
			sweep(0)
			for cycles := 0; pending > 0 && cycles < maxCyclesPerBurst; cycles++ {
				from := time.Since(t0)
				end := o.rec.span("core.EagerCycle")
				e.EagerCycle()
				end()
				cycleMS = append(cycleMS, float64((time.Since(t0)-from).Nanoseconds())/1e6)
				sweep(from)
			}
		})
		endOp()
		p.ops += len(burst)
		if bursts+1 == v.sz.eagerPrefix {
			m.markPrefix(p)
			p.setExact("bytes_per_op", float64(e.Network().Total().Since(net0).TotalBytes())/float64(p.ops))
			run.prefixCyc = len(cycleMS)
		}
	}
	m.finish(p)

	exact := baseline.NewCentralizedWithNets(w.ds, nil, e.Config().K)
	cyclesSum := 0
	for i, is := range all {
		qr := is.run
		switch {
		case qr == nil:
			p.fail(1, "query of user %d was refused", is.q.Querier)
		case !qr.Done():
			p.fail(1, "query %d not done after %d cycles", qr.ID, maxCyclesPerBurst)
		case qr.ProfilesUsed() != qr.ProfilesNeeded():
			p.fail(1, "query %d used %d of %d profiles", qr.ID, qr.ProfilesUsed(), qr.ProfilesNeeded())
		case topk.Recall(qr.Results(), exact.TopKOverNetwork(is.q, is.members)) != 1:
			p.fail(1, "query %d misses items of the exact top-k", qr.ID)
		default:
			cyclesSum += qr.Cycles()
		}
		if i < p.prefixOps {
			var res []topk.Entry
			if qr != nil {
				res = qr.Results()
			}
			run.results = append(run.results, res)
		}
	}
	cycles := float64(len(cycleMS))
	p.vals["core.eager_plan_ms_per_cycle"] = ratio(phaseMS(w.reg, obs.PhasePlan)-plan0, cycles)
	p.vals["core.eager_commit_ms_per_cycle"] = ratio(phaseMS(w.reg, obs.PhaseCommit)-commit0, cycles)
	p.vals["core.eager_cycle_ms_p50"] = median(cycleMS)
	p.vals["core.cycles_per_query_mean"] = ratio(float64(cyclesSum), float64(p.ops-p.failed))
	if o.rec != nil {
		probeEagerLayers(v, w.ds, e, queries, p)
	}
	return run
}

func runEngineEager(v *env, o passOpts) *pass {
	return v.runEager(o, nil, 0).pass
}

// runEngineEagerAsync runs the bursts through the event queue at zero
// delay and holds the outcome to the synchronous path's: the same queries
// must return the same result lists.
func runEngineEagerAsync(v *env, o passOpts) *pass {
	async := v.runEager(o, sim.FixedLatency(0), v.sz.asyncBursts)
	p := async.pass
	if v.syncRef == nil {
		v.syncRef = v.runEager(passOpts{setups: 1}, nil, v.sz.eagerPrefix)
	}
	ref := v.syncRef
	if ref.failed > 0 {
		p.fail(p.ops-p.failed, "synchronous reference failed: %s", strings.Join(ref.problems, "; "))
		return p
	}
	for i := range ref.results {
		if !slices.Equal(async.results[i], ref.results[i]) {
			p.fail(1, "prefix query %d: zero-delay async and synchronous results differ", i)
		}
	}
	if async.prefixCyc != ref.prefixCyc {
		p.fail(p.prefixOps, "the prefix took %d cycles async and %d synchronous", async.prefixCyc, ref.prefixCyc)
	}
	// Same queries, same cycles, same results: what differs is the wall
	// time of the burst, and the event-driven path is all of it.
	p.vals["core.async0_over_sync_ratio"] = ratio(async.prefixBusy.Seconds(), ref.prefixBusy.Seconds())
	if o.rec != nil {
		p.vals["sim.eventqueue_ns_per_event"] = probeEventQueue(v)
	}
	return p
}

// runCheckpoint round-trips a warm engine with queries in flight through
// its checkpoint; op = one Snapshot to a buffer plus one Restore from it.
func runCheckpoint(v *env, o passOpts) *pass {
	p := newPass()
	var w *warmEngine
	p.vals["setup_s"] = medianSetup(o.setups, func() {
		w = v.buildEngine(nil)
		queries := trace.GenerateQueries(w.ds, v.seed)
		for _, q := range queries[:min(v.sz.inflight, len(queries))] {
			w.e.IssueQuery(q)
		}
		w.e.EagerCycle()
		w.e.EagerCycle()
	}, func() { w = nil })
	p.vals["trace.generate_s"] = w.genS
	e := w.e
	cfg := e.Config()

	var snap, again bytes.Buffer
	var snapS, restoreS float64
	m := startMeter(o.seconds)
	for p.ops < v.sz.ckptPrefix || !m.expired() {
		var restored *core.Engine
		var err error
		endOp := o.rec.beginOp("op.roundtrip")
		m.addOp(m.timed(func() {
			snap.Reset()
			t0 := time.Now()
			end := o.rec.span("core.Snapshot")
			err = e.Snapshot(&snap)
			end()
			t1 := time.Now()
			if err != nil {
				return
			}
			end = o.rec.span("core.Restore")
			restored, err = core.Restore(bytes.NewReader(snap.Bytes()), nil, cfg)
			end()
			snapS += t1.Sub(t0).Seconds()
			restoreS += time.Since(t1).Seconds()
		}))
		endOp()
		p.ops++
		if err != nil {
			p.fail(1, "round trip %d: %v", p.ops, err)
			continue
		}
		// The restored engine must write the very stream it was read from.
		again.Reset()
		if err := restored.Snapshot(&again); err != nil {
			p.fail(1, "round trip %d: re-snapshot: %v", p.ops, err)
		} else if !bytes.Equal(snap.Bytes(), again.Bytes()) {
			p.fail(1, "round trip %d: restore then snapshot wrote %d bytes that differ from the %d read", p.ops, again.Len(), snap.Len())
		}
		if p.ops == v.sz.ckptPrefix {
			m.markPrefix(p)
			p.setExact("bytes_per_op", float64(snap.Len()))
		}
	}
	m.finish(p)
	mb := float64(snap.Len()) * float64(p.ops-p.failed) / 1e6
	p.vals["checkpoint.snapshot_MBps"] = ratio(mb, snapS)
	p.vals["checkpoint.restore_MBps"] = ratio(mb, restoreS)
	p.vals["checkpoint.bytes_per_node"] = float64(snap.Len()) / float64(e.Users())
	if o.rec != nil {
		p.vals["checkpoint.u64s_ns_per_word"] = probeCheckpointWords(v)
	}
	if e.AllQueriesDone() {
		p.fail(p.ops-p.failed, "the checkpointed state holds no query in flight")
	}
	return p
}
