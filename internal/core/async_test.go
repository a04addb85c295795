package core

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"
	"time"

	"p3q/internal/sim"
	"p3q/internal/tagging"
	"p3q/internal/trace"
)

// Tests for eager delivery under Config.Latency: nil and a zero-delay model
// are one configuration, worker-count determinism of the event path,
// mid-cycle settling, and the freeze/replay lifecycle of events targeting
// departed nodes.

// runZeroDelayWorkload drives a churn-heavy workload to full completion
// (every query done, none stalled at the end) and returns the sha256 of the
// engine's checkpoint after every cycle, eager or lazy.
func runZeroDelayWorkload(t *testing.T, workers int, lat sim.LatencyModel) []string {
	t.Helper()
	cfg := smallCfg()
	cfg.S = 15
	cfg.C = 5
	cfg.Workers = workers
	cfg.Latency = lat
	w := newWorld(t, 120, cfg, 91)
	e := New(w.ds, cfg)
	e.SeedIdealNetworks(w.ideal)

	var sums []string
	cycles := func(n int, cycle func()) {
		for i := 0; i < n; i++ {
			cycle()
			var buf bytes.Buffer
			if err := e.Snapshot(&buf); err != nil {
				t.Fatal(err)
			}
			sums = append(sums, fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())))
		}
	}
	for _, q := range trace.GenerateQueries(w.ds, 6)[:25] {
		e.IssueQuery(q)
	}
	cycles(2, e.EagerCycle)
	killed := e.Kill(0.2)
	if len(killed) == 0 {
		t.Fatal("Kill removed nobody")
	}
	cycles(2, e.EagerCycle) // forced: survivors gossip around the holes
	cycles(2, e.LazyCycle)
	e.Revive(killed)
	for ran := 0; !e.AllQueriesDone(); ran++ {
		if ran >= 400 {
			t.Fatal("workload did not settle within the cycle budget")
		}
		cycles(1, e.EagerCycle)
	}
	for _, qr := range e.Queries() {
		if !qr.Done() {
			t.Fatalf("query %d not done at the end (state %v); the workload must complete every query", qr.ID, qr.State())
		}
		if qr.ProfilesUsed() != qr.ProfilesNeeded() {
			t.Fatalf("query %d used %d profiles, needed %d", qr.ID, qr.ProfilesUsed(), qr.ProfilesNeeded())
		}
	}
	if e.PendingEvents() != 0 || e.FrozenEvents() != 0 {
		t.Fatalf("zero-delay run left %d pending and %d frozen events", e.PendingEvents(), e.FrozenEvents())
	}
	return sums
}

// syncGoldenFingerprint pins the Latency=nil engine's mixed-workload
// output as of the introduction of the event scheduler, when nil still had
// a delivery path of its own: the one event-driven path must keep
// reproducing that path's output byte for byte. If a deliberate protocol or
// fingerprint-format change breaks this, regenerate the constant from
// sha256(runMixedWorkload(t, 1)).
const syncGoldenFingerprint = "513db530a44d00e06605983b1c43303edbba43d27950b403126010e04588c259"

func TestSyncOutputPinned(t *testing.T) {
	got := fmt.Sprintf("%x", sha256.Sum256([]byte(runMixedWorkload(t, 1))))
	if got != syncGoldenFingerprint {
		t.Fatalf("Latency=nil engine output changed: fingerprint sha256 = %s, pinned %s\n"+
			"(if this change is deliberate, update syncGoldenFingerprint)", got, syncGoldenFingerprint)
	}
}

// TestAsyncZeroLatencyMatchesSync pins that Latency = nil means zero-delay
// events and nothing else: nil and sim.FixedLatency(0) write byte-identical
// checkpoints after every cycle — in-progress NRA state, the event queue's
// scheduling counter and the per-query settle stamps included — for any
// worker count.
func TestAsyncZeroLatencyMatchesSync(t *testing.T) {
	want := runZeroDelayWorkload(t, 1, nil)
	for _, run := range []struct {
		workers int
		lat     sim.LatencyModel
	}{{1, sim.FixedLatency(0)}, {4, nil}, {4, sim.FixedLatency(0)}} {
		got := runZeroDelayWorkload(t, run.workers, run.lat)
		if len(got) != len(want) {
			t.Fatalf("Workers=%d Latency=%v ran %d cycles, Workers=1 Latency=nil ran %d", run.workers, run.lat, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("Workers=%d Latency=%v: checkpoint after cycle %d differs from Workers=1 Latency=nil", run.workers, run.lat, i+1)
			}
		}
	}
}

// runMixedWorkloadLatency is runMixedWorkload with a heavy-tailed latency
// model: lognormal with a 2s median against the 5s eager period, so a
// sizable fraction of deliveries crosses cycle boundaries and some land
// during the lazy phases and churn waves.
func runMixedWorkloadLatency(t *testing.T, workers int) string {
	t.Helper()
	cfg := smallCfg()
	cfg.S = 15
	cfg.C = 5
	cfg.Workers = workers
	cfg.Latency = sim.LogNormalLatency{Median: 2 * time.Second, Sigma: 1.0}
	w := newWorld(t, 120, cfg, 77)
	e := New(w.ds, cfg)
	e.Bootstrap()
	e.RunLazy(8)

	trace.ApplyChanges(w.ds, trace.GenerateChanges(w.ds, trace.ChangeParams{
		FracUsers: 0.3, MeanNew: 4, SigmaNew: 0.5, MaxNew: 15, Seed: 9,
	}))
	e.RunLazy(4)

	for _, q := range trace.GenerateQueries(w.ds, 5)[:20] {
		e.IssueQuery(q)
	}
	e.RunEager(2)

	killed := e.Kill(0.25)
	if len(killed) == 0 {
		t.Fatal("Kill removed nobody")
	}
	for i := 0; i < 3; i++ {
		e.EagerCycle()
	}
	e.RunLazy(2)
	e.Revive(killed)
	e.RunEager(20)

	killed = e.Kill(0.25)
	if len(killed) == 0 {
		t.Fatal("second Kill removed nobody")
	}
	e.RunLazy(4)
	e.Revive(killed)
	e.RunLazy(4)

	return engineFingerprint(e)
}

func TestAsyncParallelDeterminism(t *testing.T) {
	// A latency-modelled run must stay byte-for-byte identical for every
	// worker count — including the latency draws, the event schedule, the
	// freeze/replay bookkeeping and the per-query time metrics the
	// fingerprint now carries. 7 does not divide 120, so shards of unequal
	// size are covered too. Run under -race in CI.
	want := runMixedWorkloadLatency(t, 1)
	for _, workers := range []int{2, 7, 8} {
		got := runMixedWorkloadLatency(t, workers)
		if got != want {
			t.Fatalf("Workers=%d async run diverged from Workers=1:\n%s", workers, firstDiff(want, got))
		}
	}
}

func TestAsyncQueriesSettleMidCycle(t *testing.T) {
	// With a 1s fixed delay against the 5s period, a gossip planned at t0
	// resolves its partial result at t0+2s: queries settle strictly inside
	// a cycle window.
	cfg := smallCfg()
	cfg.Latency = sim.FixedLatency(time.Second)
	w := newWorld(t, 120, cfg, 58)
	e := New(w.ds, cfg)
	e.SeedIdealNetworks(w.ideal)
	q, ok := trace.QueryFor(w.ds, 5, 3)
	if !ok {
		t.Fatal("no query for user 5")
	}
	qr := e.IssueQuery(q)
	if qr.Done() {
		t.Fatal("query finished locally; scenario too weak")
	}
	e.RunEager(200)
	if !qr.Done() {
		t.Fatal("query did not complete")
	}
	tfull, ok := qr.TimeToFullRecall()
	if !ok {
		t.Fatal("completed query reports no time-to-full-recall")
	}
	if tfull%e.Config().EagerPeriod == 0 {
		t.Fatalf("time-to-full-recall %v lies on a cycle boundary; expected a mid-cycle settle", tfull)
	}
	t1st, ok := qr.TimeToFirstResult()
	if !ok {
		t.Fatal("completed query reports no time-to-first-result")
	}
	if t1st <= 0 || t1st > tfull {
		t.Fatalf("time-to-first-result %v outside (0, %v]", t1st, tfull)
	}
	// Fixed 1s hops: the first partial result needs forward + partial
	// delivery, i.e. exactly 2s after the first gossip cycle started.
	if t1st != 2*time.Second {
		t.Fatalf("time-to-first-result = %v, want 2s (forward 1s + partial 1s)", t1st)
	}
	want := exactReference(e, q, cfg.K)
	got := qr.Results()
	if len(got) != len(want) {
		t.Fatalf("got %d results, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("result %d = %v, want %v (exact baseline)", i, got[i], want[i])
		}
	}
}

func TestAsyncFrozenPartialRedelivery(t *testing.T) {
	// A partial result in flight toward a querier who departs before it
	// arrives must freeze — not deliver, not vanish — and be redelivered
	// when the querier revives, so the query still reaches full recall.
	cfg := smallCfg()
	cfg.Latency = sim.FixedLatency(7 * time.Second) // > EagerPeriod: every delivery crosses a cycle boundary
	w := newWorld(t, 120, cfg, 57)
	e := New(w.ds, cfg)
	e.SeedIdealNetworks(w.ideal)
	q, ok := trace.QueryFor(w.ds, 3, 14)
	if !ok {
		t.Fatal("no query for user 3")
	}
	qr := e.IssueQuery(q)
	e.RunEager(2)
	if qr.Done() {
		t.Fatal("query finished before the churn could hit; weaken the head start")
	}
	if qr.InFlight() == 0 {
		t.Fatal("nothing in flight after two cycles; scenario too weak to test freezing")
	}

	e.Network().SetOnline(q.Querier, false)
	used := qr.ProfilesUsed()
	msgs := qr.PartialResultMessages()
	for i := 0; i < 6; i++ {
		e.EagerCycle() // forced: in-flight deliveries fire and must freeze
	}
	if qr.ProfilesUsed() != used || qr.PartialResultMessages() != msgs {
		t.Fatal("partial results were delivered to a departed querier")
	}
	if len(e.frozen[q.Querier]) == 0 {
		t.Fatal("no event froze at the departed querier")
	}
	if !qr.Stalled() {
		t.Fatalf("query state = %v, want stalled", qr.State())
	}

	e.Revive([]tagging.UserID{q.Querier})
	e.RunEager(400)
	if !qr.Done() {
		t.Fatal("query did not complete after the querier revived")
	}
	if len(e.frozen[q.Querier]) != 0 {
		t.Fatal("frozen events were not replayed on revival")
	}
	if qr.ProfilesUsed() != qr.ProfilesNeeded() {
		t.Fatalf("profiles used %d != needed %d: a frozen partial result was lost",
			qr.ProfilesUsed(), qr.ProfilesNeeded())
	}
	want := exactReference(e, q, cfg.K)
	got := qr.Results()
	for i := range want {
		if i >= len(got) || got[i] != want[i] {
			t.Fatalf("results diverge from exact baseline after redelivery: got %v want %v", got, want)
		}
	}
}

func TestAsyncFrozenBranchEventsReplay(t *testing.T) {
	// Branch hand-offs (kept and returned remaining-list portions) in
	// flight toward nodes that depart mid-delivery must freeze and replay
	// too: after a churn wave strikes a query burst under high latency,
	// reviving everyone must still drive every query to full recall.
	cfg := smallCfg()
	cfg.S = 15
	cfg.C = 5
	cfg.Latency = sim.UniformLatency{Min: 2 * time.Second, Max: 12 * time.Second}
	w := newWorld(t, 120, cfg, 77)
	e := New(w.ds, cfg)
	e.SeedIdealNetworks(w.ideal)
	for _, q := range trace.GenerateQueries(w.ds, 5)[:20] {
		e.IssueQuery(q)
	}
	e.RunEager(2)
	killed := e.Kill(0.4)
	if len(killed) == 0 {
		t.Fatal("Kill removed nobody")
	}
	for i := 0; i < 4; i++ {
		e.EagerCycle() // in-flight events aimed at the dead fire and freeze
	}
	total := 0
	for _, evs := range e.frozen {
		total += len(evs)
	}
	if total == 0 {
		t.Fatal("no event froze at a departed node; scenario too weak")
	}

	e.Revive(killed)
	if ran := e.RunEager(600); ran >= 600 {
		t.Fatal("queries did not settle after full revival")
	}
	for _, qr := range e.Queries() {
		if !qr.Done() {
			t.Fatalf("query %d not done after revival (state %v)", qr.ID, qr.State())
		}
		if qr.ProfilesUsed() != qr.ProfilesNeeded() {
			t.Fatalf("query %d used %d profiles, needed %d: a frozen branch event was lost",
				qr.ID, qr.ProfilesUsed(), qr.ProfilesNeeded())
		}
	}
	if e.PendingEvents() != 0 || len(e.frozen) != 0 {
		t.Fatalf("leftover events after completion: %d pending, %d frozen targets",
			e.PendingEvents(), len(e.frozen))
	}
}

func TestAsyncStalledQueryFrozenCounters(t *testing.T) {
	// The stall contract holds under a latency model too: while the querier is
	// away the query burns no traffic of its own and its cycle counter
	// freezes, and RunEager does not spin on a stalled-only engine.
	cfg := smallCfg()
	cfg.Latency = sim.FixedLatency(500 * time.Millisecond)
	w := newWorld(t, 120, cfg, 58)
	e := New(w.ds, cfg)
	e.SeedIdealNetworks(w.ideal)
	q, ok := trace.QueryFor(w.ds, 5, 3)
	if !ok {
		t.Fatal("no query for user 5")
	}
	qr := e.IssueQuery(q)
	e.RunEager(1)
	if qr.Done() {
		t.Fatal("query finished before the churn could hit")
	}
	// Let the in-flight deliveries of the head start land first (500ms
	// hops stay within the window), then stall the querier.
	e.Network().SetOnline(q.Querier, false)
	if qr.State() != QueryStalled {
		t.Fatalf("state = %v, want stalled", qr.State())
	}
	if ran := e.RunEager(50); ran != 0 {
		t.Fatalf("RunEager ran %d cycles for a stalled-only query, want 0", ran)
	}
	cycles, bytes := qr.Cycles(), qr.Bytes()
	e.EagerCycle()
	if qr.Cycles() != cycles {
		t.Fatal("stalled query advanced its cycle count")
	}
	if qr.Bytes() != bytes {
		t.Fatal("stalled query generated traffic")
	}

	e.Network().SetOnline(q.Querier, true)
	e.RunEager(400)
	if !qr.Done() || qr.State() != QueryDone {
		t.Fatalf("query did not finish after revival (state %v)", qr.State())
	}
	if qr.ProfilesUsed() != qr.ProfilesNeeded() {
		t.Fatalf("profiles used %d != needed %d after revival", qr.ProfilesUsed(), qr.ProfilesNeeded())
	}
}

func TestAsyncClockAdvances(t *testing.T) {
	cfg := smallCfg()
	cfg.Latency = sim.FixedLatency(time.Second)
	w := newWorld(t, 50, cfg, 3)
	e := New(w.ds, cfg)
	e.SeedIdealNetworks(w.ideal)
	if e.Now() != 0 {
		t.Fatalf("fresh engine clock = %v, want 0", e.Now())
	}
	e.EagerCycle()
	if e.Now() != e.Config().EagerPeriod {
		t.Fatalf("clock after one eager cycle = %v, want %v", e.Now(), e.Config().EagerPeriod)
	}
	e.LazyCycle()
	want := e.Config().EagerPeriod + e.Config().LazyPeriod
	if e.Now() != want {
		t.Fatalf("clock after eager+lazy = %v, want %v", e.Now(), want)
	}
}
