package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// metricDef is one metric as BENCHMARK.json declares it. Bound is the
// share of the parent's median a later change may worsen an end-to-end
// metric by; per-layer metrics carry none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the system sees; every workload
// reports all of them from its untraced run. How many ops were attempted
// and how many failed travel beside them in the result line (a share of
// failures that is always 0 cannot carry a relative bound).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"throughput_ops_s", "ops/s", "higher", 0.25},
	{"op_ms_p50", "ms", "lower", 0.25},
	{"alloc_kb_per_op", "KB", "lower", 0.10},
	{"live_heap_mb", "MB", "lower", 0.05},
	{"bytes_per_op", "bytes", "lower", 0.10},
}

// perLayer are the metrics of single layers, printed by the traced run.
// Each is measured by the workload that drives that layer (README.md maps
// them); a workload that never enters a layer reports 0 for it.
var perLayer = []metricDef{
	{Name: "core.lazy_plan_ms_per_cycle", Unit: "ms", Better: "lower"},
	{Name: "core.lazy_commit_ms_per_cycle", Unit: "ms", Better: "lower"},
	{Name: "core.commit_skew_ms_mean", Unit: "ms", Better: "lower"},
	{Name: "core.workers1_over_workers2_ratio", Unit: "ratio", Better: "higher"},
	{Name: "core.sim_msgs_per_cycle", Unit: "count", Better: "lower"},
	{Name: "core.alloc_bytes_per_node_cycle", Unit: "bytes", Better: "lower"},
	{Name: "core.pnet_upsert_ns", Unit: "ns", Better: "lower"},
	{Name: "core.eager_plan_ms_per_cycle", Unit: "ms", Better: "lower"},
	{Name: "core.eager_commit_ms_per_cycle", Unit: "ms", Better: "lower"},
	{Name: "core.eager_cycle_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "core.cycles_per_query_mean", Unit: "count", Better: "lower"},
	{Name: "core.async0_over_sync_ratio", Unit: "ratio", Better: "lower"},
	{Name: "sim.eventqueue_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "sim.ledger_send_ns", Unit: "ns", Better: "lower"},
	{Name: "topk.partial_list_ns", Unit: "ns", Better: "lower"},
	{Name: "topk.nra_run_ns_per_list", Unit: "ns", Better: "lower"},
	{Name: "topk.nra_scanned_ratio", Unit: "ratio", Better: "lower"},
	{Name: "bloom.add_ns", Unit: "ns", Better: "lower"},
	{Name: "bloom.test_ns", Unit: "ns", Better: "lower"},
	{Name: "tagging.digest_build_ns", Unit: "ns", Better: "lower"},
	{Name: "tagging.digest_rebuild_ns", Unit: "ns", Better: "lower"},
	{Name: "tagging.common_score_ns", Unit: "ns", Better: "lower"},
	{Name: "gossip.view_merge_ns", Unit: "ns", Better: "lower"},
	{Name: "gossip.send_buffer_ns", Unit: "ns", Better: "lower"},
	{Name: "trace.generate_s", Unit: "s", Better: "lower"},
	{Name: "checkpoint.snapshot_MBps", Unit: "MB/s", Better: "higher"},
	{Name: "checkpoint.restore_MBps", Unit: "MB/s", Better: "higher"},
	{Name: "checkpoint.bytes_per_node", Unit: "bytes", Better: "lower"},
	{Name: "checkpoint.u64s_ns_per_word", Unit: "ns", Better: "lower"},
	{Name: "wire.encode_ns_per_frame", Unit: "ns", Better: "lower"},
	{Name: "wire.decode_ns_per_frame", Unit: "ns", Better: "lower"},
	{Name: "wire.decode_allocs_per_frame", Unit: "count", Better: "lower"},
	{Name: "wire.bytes_per_frame_mean", Unit: "bytes", Better: "lower"},
	{Name: "wire.codec_MBps", Unit: "MB/s", Better: "higher"},
	{Name: "peer.cycle_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "peer.replica_step_ms_per_cycle", Unit: "ms", Better: "lower"},
	{Name: "peer.exchange_ms_per_cycle", Unit: "ms", Better: "lower"},
	{Name: "peer.engine_ref_cycle_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "peer.cluster_over_engine_ratio", Unit: "ratio", Better: "lower"},
	{Name: "peer.frames_per_cycle", Unit: "count", Better: "lower"},
	{Name: "peer.data_bytes_per_cycle", Unit: "bytes", Better: "lower"},
	{Name: "peer.ctrl_bytes_per_cycle", Unit: "bytes", Better: "lower"},
	{Name: "peer.gateway_bytes_per_op", Unit: "bytes", Better: "lower"},
	{Name: "peer.conn_write_block_ms_per_cycle", Unit: "ms", Better: "lower"},
	{Name: "peer.submit_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "peer.status_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "peer.connect_ms", Unit: "ms", Better: "lower"},
	{Name: "peer.divergence", Unit: "count", Better: "lower"},
	{Name: "obs.attach_overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "driver.op_ms_p90", Unit: "ms", Better: "lower"},
	{Name: "driver.op_ms_max", Unit: "ms", Better: "lower"},
	{Name: "driver.samples", Unit: "count", Better: "higher"},
	{Name: "driver.gc_pause_ms_total", Unit: "ms", Better: "lower"},
	{Name: "driver.peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "driver.trace_overhead_ratio", Unit: "ratio", Better: "higher"},
}

// reported is the metric set a run prints: end to end with tracing off,
// per layer with tracing on.
func reported(traced bool) []metricDef {
	if traced {
		return perLayer
	}
	return endToEnd
}

// sizes fixes the populations and the length of each workload's prefix:
// the first ops of every run, always executed whatever the time budget.
// The exact (per-seed deterministic) metrics and the median op time are
// taken over the prefix, so they describe the same ops in every run; the
// prefixes are sized to fill most of the driver's 8 seconds. What runs
// after the prefix counts towards throughput and the tail percentiles.
type sizes struct {
	engineUsers int // population of the engine and checkpoint workloads
	s, c        int // personal network size and stored replicas
	warmLazy    int // lazy cycles in set-up
	lazyPrefix  int // lazy cycles in the prefix
	burst       int // queries issued together on the eager workloads
	eagerPrefix int // bursts in the prefix
	asyncBursts int // the async workload stops after this many bursts
	inflight    int // queries in flight in the checkpointed state
	ckptPrefix  int // snapshot/restore round trips in the prefix

	clusterUsers       int
	clusterWarm        int
	clusterLazyPrefix  int
	clusterQueryPrefix int

	probeCycles int           // cycles per side of a ratio probe
	probeBudget time.Duration // how long one micro probe loops
	setups      int           // set-ups per untraced run; the median is reported
}

// fullSizes are the benchmark's; populations and configurations follow
// the tracked benches of bench_test.go and the e2e cluster tier.
var fullSizes = sizes{
	engineUsers: 5000, s: 50, c: 10, warmLazy: 5, lazyPrefix: 24,
	burst: 512, eagerPrefix: 1, asyncBursts: 3, inflight: 256, ckptPrefix: 12,
	clusterUsers: 600, clusterWarm: 8, clusterLazyPrefix: 40, clusterQueryPrefix: 96,
	probeCycles: 10, probeBudget: 100 * time.Millisecond, setups: 3,
}

// toySizes drive every workload through the same code in well under a
// second each, for the tier-1 smoke test.
var toySizes = sizes{
	engineUsers: 150, s: 20, c: 5, warmLazy: 2, lazyPrefix: 3,
	burst: 16, eagerPrefix: 1, asyncBursts: 2, inflight: 8, ckptPrefix: 2,
	clusterUsers: 90, clusterWarm: 3, clusterLazyPrefix: 3, clusterQueryPrefix: 4,
	probeCycles: 2, probeBudget: time.Millisecond, setups: 1,
}

// env is what one invocation hands every pass of a workload.
type env struct {
	seed    uint64
	seconds float64
	sz      sizes
	stderr  io.Writer // where a watchdog dumps goroutines

	// syncRef caches the synchronous reference of the async workload, so
	// the untraced and the traced pass of one invocation share it.
	syncRef *eagerRun
}

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	why  string
	run  func(v *env, o passOpts) *pass
}

var workloads = []workload{
	{"engine-lazy-5k", "bare engine lazy cycles: plan/commit, personal networks, views, digests and Bloom tests do all the work; wire, NRA and checkpoint none", runEngineLazy},
	{"engine-eager-5k", "query bursts to full recall on the bare engine: eager planning, partial lists and incremental NRA dominate; lazy maintenance is only the piggyback", runEngineEager},
	{"engine-eager-async0-5k", "the same bursts through the zero-delay event queue: isolates the cost of event-driven delivery from the synchronous path", runEngineEagerAsync},
	{"cluster-lazy-3d", "lazy cycles on three daemons over net.Pipe: the heavy wire regime where replica stepping and codec volume both show", runClusterLazy},
	{"cluster-query-3d", "closed loop, one client, one query in flight through a member gateway: the small-message regime where per-cycle RPC cost dominates", runClusterQuery},
	{"checkpoint-5k", "snapshot and restore of a warm engine with queries in flight: the only user of the checkpoint codec at volume, write beside read", runCheckpoint},
}

// passOpts selects how one pass over a workload runs.
type passOpts struct {
	rec     *recorder // nil: tracing off
	seconds float64   // 0: the prefix only
	setups  int
}

// pass is what one pass over a workload measured.
type pass struct {
	ops      int
	failed   int
	problems []string
	aborted  bool // a watchdog fired; the process must not wait for anything

	vals map[string]float64
	// exact holds the values that depend on seed and code alone. The
	// traced pass must reproduce the untraced pass's to the last digit.
	exact map[string]float64

	prefixOps  int
	prefixBusy time.Duration
}

func newPass() *pass {
	return &pass{vals: make(map[string]float64), exact: make(map[string]float64)}
}

// setExact records a value that seed and code alone decide.
func (p *pass) setExact(name string, v float64) {
	p.vals[name] = v
	p.exact[name] = v
}

// fail counts n failed ops and keeps the first few reasons.
func (p *pass) fail(n int, format string, args ...any) {
	p.failed += n
	if len(p.problems) < 8 {
		p.problems = append(p.problems, fmt.Sprintf(format, args...))
	}
}

// meter times one pass's measured section. Only what runs inside timed
// counts as busy time, so the bookkeeping between ops (reading counters
// and collecting garbage at the end of the prefix, checking outputs)
// stays out of every rate.
type meter struct {
	seconds float64
	busy    time.Duration
	opMS    []float64
	prefix  int // op times that belong to the prefix; 0 until it is marked
	m0      runtime.MemStats
}

func startMeter(seconds float64) *meter {
	m := &meter{seconds: seconds}
	runtime.GC()
	runtime.ReadMemStats(&m.m0)
	return m
}

func (m *meter) timed(f func()) time.Duration {
	t0 := time.Now()
	f()
	d := time.Since(t0)
	m.busy += d
	return d
}

func (m *meter) expired() bool { return m.busy.Seconds() >= m.seconds }

func (m *meter) addOp(d time.Duration) { m.opMS = append(m.opMS, float64(d.Nanoseconds())/1e6) }

// markPrefix closes the prefix, after p.ops ops. Everything that is not
// a time is taken here, where every run of a seed has done the same work:
// allocation per op, and the heap still live after a forced collection
// (the run's state: population, replicas, queries so far).
func (m *meter) markPrefix(p *pass) {
	p.prefixOps, p.prefixBusy = p.ops, m.busy
	m.prefix = len(m.opMS)
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	p.vals["alloc_kb_per_op"] = float64(m1.TotalAlloc-m.m0.TotalAlloc) / 1024 / float64(p.ops)
	runtime.GC()
	runtime.ReadMemStats(&m1)
	p.vals["live_heap_mb"] = float64(m1.HeapAlloc) / (1 << 20)
}

// finish turns the section into the timing metrics: throughput and the
// tail over all of it, the median over the prefix. Ops differ in cost
// (a cluster query's middle half spans 20 to 90 ms), so a median over
// however many ops fitted into the time budget would move with that count.
func (m *meter) finish(p *pass) {
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	p.vals["throughput_ops_s"] = ratio(float64(p.ops), m.busy.Seconds())
	prefix := m.opMS
	if m.prefix > 0 {
		prefix = m.opMS[:m.prefix]
	}
	p.vals["op_ms_p50"] = median(prefix)
	p.vals["driver.op_ms_p90"] = percentile(m.opMS, 0.9)
	p.vals["driver.op_ms_max"] = maxOf(m.opMS)
	p.vals["driver.samples"] = float64(len(m.opMS))
	p.vals["driver.gc_pause_ms_total"] = float64(m1.PauseTotalNs-m.m0.PauseTotalNs) / 1e6
	p.vals["driver.peak_rss_mb"] = peakRSSMB()
}

// medianSetup runs build the given number of times, dropping each state
// before building the next, and returns the median of the build times.
// The last state built is the one the caller measures.
func medianSetup(n int, build func(), drop func()) float64 {
	var secs []float64
	for i := 0; i < n; i++ {
		if i > 0 {
			drop()
			runtime.GC()
		}
		t0 := time.Now()
		build()
		secs = append(secs, time.Since(t0).Seconds())
	}
	return median(secs)
}

// result is the outcome of one workload invocation.
type result struct {
	*pass
	attempted int
	rec       *recorder
}

func (r *result) correct() bool { return r.failed == 0 && !r.aborted }

// execute runs one workload: untraced, that is one pass; traced, an
// untraced pass over the prefix first, so that the traced pass can be
// held to the same exact values and its overhead is a measured ratio.
func execute(w workload, v *env, traced bool) *result {
	if !traced {
		p := w.run(v, passOpts{seconds: v.seconds, setups: v.sz.setups})
		return &result{pass: p, attempted: p.ops}
	}
	ref := w.run(v, passOpts{setups: 1})
	if ref.aborted {
		return &result{pass: ref, attempted: ref.ops}
	}
	rec := newRecorder()
	p := w.run(v, passOpts{rec: rec, seconds: v.seconds, setups: 1})
	names := make([]string, 0, len(ref.exact))
	for name := range ref.exact {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if got, want := p.exact[name], ref.exact[name]; got != want {
			p.fail(p.ops-p.failed, "%s reads %v traced and %v untraced for the same seed", name, got, want)
		}
	}
	p.failed += ref.failed
	p.problems = append(p.problems, ref.problems...)
	p.vals["driver.trace_overhead_ratio"] = ratio(
		ratio(float64(p.prefixOps), p.prefixBusy.Seconds()),
		ratio(float64(ref.prefixOps), ref.prefixBusy.Seconds()))
	return &result{pass: p, attempted: p.ops + ref.ops, rec: rec}
}

// report is the line the regression driver reads.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *result) report(traced bool) report {
	defs := reported(traced)
	rep := report{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed, Metrics: make(map[string]metricValue, len(defs))}
	if rep.Failed > rep.Attempted {
		rep.Failed = rep.Attempted
	}
	for _, m := range defs {
		rep.Metrics[m.Name] = metricValue{Value: r.vals[m.Name], Unit: m.Unit}
	}
	return rep
}

// print renders the human-readable table.
func (r *result) print(w io.Writer, wl workload, traced bool) {
	fmt.Fprintf(w, "\n== %s ==\n%s\n", wl.name, wl.why)
	fmt.Fprintf(w, "ops attempted %d, failed %d, timing samples %.0f\n", r.attempted, r.failed, r.vals["driver.samples"])
	for _, problem := range r.problems {
		fmt.Fprintf(w, "  FAILED: %s\n", problem)
	}
	for _, m := range reported(traced) {
		val := r.vals[m.Name]
		if traced && val == 0 {
			continue // a layer this workload never enters
		}
		fmt.Fprintf(w, "  %-38s %16.4f %-6s (%s is better)\n", m.Name, val, m.Unit, m.Better)
	}
	if traced {
		self := r.rec.selfByName()
		names := make([]string, 0, len(self))
		for name := range self {
			names = append(names, name)
		}
		sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
		fmt.Fprintf(w, "  self time by span, traced pass:\n")
		for _, name := range names {
			fmt.Fprintf(w, "    %-36s %14.2f ms\n", name, self[name])
		}
	}
}

// writeTrace stores the traced pass: every span with its self time, the
// self-time totals per span name and the per-layer metrics.
func (r *result) writeTrace(path string, wl workload, seed uint64) error {
	if r.rec == nil {
		return fmt.Errorf("no trace for %s: the run aborted before its traced pass", wl.name)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	doc := struct {
		Workload string             `json:"workload"`
		Why      string             `json:"why"`
		Seed     uint64             `json:"seed"`
		Metrics  map[string]float64 `json:"metrics"`
		SelfMS   map[string]float64 `json:"self_ms_by_span"`
		Spans    []span             `json:"spans"`
	}{wl.name, wl.why, seed, make(map[string]float64), r.rec.selfByName(), r.rec.spans}
	for _, m := range perLayer {
		doc.Metrics[m.Name] = r.vals[m.Name]
	}
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	return nil
}
