package core

import (
	"testing"
	"time"

	"p3q/internal/obs"
	"p3q/internal/sim"
	"p3q/internal/trace"
)

// runObsWorkload drives an engine through the full protocol surface —
// lazy convergence, a query burst, mid-burst churn (stalling queries and
// freezing deliveries under the latency model), revival — with or without
// a telemetry registry attached, and returns the engine fingerprint plus
// the registry (nil when detached).
func runObsWorkload(t *testing.T, workers int, latency sim.LatencyModel, attach bool) (string, *obs.Registry) {
	t.Helper()
	cfg := smallCfg()
	cfg.S = 15
	cfg.C = 5
	cfg.Workers = workers
	cfg.Latency = latency
	w := newWorld(t, 120, cfg, 77)
	e := New(w.ds, cfg)
	var r *obs.Registry
	if attach {
		r = obs.New()
		// A sink that drops events still exercises the emission paths.
		r.SetSink(func(obs.QueryEvent) {})
		e.SetObs(r)
	}
	e.Bootstrap()
	e.RunLazy(8)
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
	e.RunEager(30)
	return engineFingerprint(e), r
}

// TestObsFingerprintInvariance pins the tentpole contract: enabling the
// full obs registry (sim-plane events with a live sink plus host-plane
// histograms) changes no engine fingerprint, synchronously or under a
// latency model, sequentially or parallel.
func TestObsFingerprintInvariance(t *testing.T) {
	models := map[string]sim.LatencyModel{
		"sync":  nil,
		"async": sim.LogNormalLatency{Median: 2 * time.Second, Sigma: 1.0},
	}
	for name, lat := range models {
		for _, workers := range []int{1, 4} {
			bare, _ := runObsWorkload(t, workers, lat, false)
			obsd, r := runObsWorkload(t, workers, lat, true)
			if bare != obsd {
				t.Fatalf("%s workers=%d: engine fingerprint changed when the obs registry was attached", name, workers)
			}
			if r.Counter(obs.CLazyCycles) == 0 || r.Counter(obs.CEagerCycles) == 0 {
				t.Fatalf("%s workers=%d: registry recorded no cycles", name, workers)
			}
			if r.EventCount(obs.EvIssued) != 20 {
				t.Fatalf("%s workers=%d: issued events = %d, want 20", name, workers, r.EventCount(obs.EvIssued))
			}
			if r.EventCount(obs.EvForward) == 0 || r.EventCount(obs.EvSettled) == 0 {
				t.Fatalf("%s workers=%d: lifecycle events missing (forward=%d settled=%d)",
					name, workers, r.EventCount(obs.EvForward), r.EventCount(obs.EvSettled))
			}
			if r.EventCount(obs.EvStalled) == 0 {
				t.Fatalf("%s workers=%d: churn stalled no queries", name, workers)
			}
			if r.PhaseTotal(obs.PhasePlan) == 0 || r.PhaseTotal(obs.PhaseCommit) == 0 {
				t.Fatalf("%s workers=%d: phase histograms empty", name, workers)
			}
			_, _, _, skewSamples := r.CommitSkew()
			if skewSamples == 0 {
				t.Fatalf("%s workers=%d: no commit-skew samples", name, workers)
			}
		}
	}
}

// TestObsSimPlaneDeterministic pins that the sim plane itself is
// reproducible: two identical runs with registries attached produce the
// same SimFingerprint and identical event streams.
func TestObsSimPlaneDeterministic(t *testing.T) {
	lat := sim.LogNormalLatency{Median: 2 * time.Second, Sigma: 1.0}
	run := func() (*obs.Registry, []obs.QueryEvent) {
		cfg := smallCfg()
		cfg.S = 15
		cfg.Workers = 4
		cfg.Latency = lat
		w := newWorld(t, 120, cfg, 77)
		e := New(w.ds, cfg)
		r := obs.New()
		var events []obs.QueryEvent
		r.SetSink(func(ev obs.QueryEvent) { events = append(events, ev) })
		e.SetObs(r)
		e.Bootstrap()
		e.RunLazy(6)
		for _, q := range trace.GenerateQueries(w.ds, 5)[:10] {
			e.IssueQuery(q)
		}
		killed := e.Kill(0.3)
		e.RunEager(5)
		e.Revive(killed)
		e.RunEager(25)
		return r, events
	}
	r1, ev1 := run()
	r2, ev2 := run()
	if r1.SimFingerprint() != r2.SimFingerprint() {
		t.Fatal("sim-plane fingerprint differs between identical runs")
	}
	if len(ev1) != len(ev2) {
		t.Fatalf("event stream lengths differ: %d vs %d", len(ev1), len(ev2))
	}
	for i := range ev1 {
		if ev1[i] != ev2[i] {
			t.Fatalf("event %d differs: %+v vs %+v", i, ev1[i], ev2[i])
		}
	}
	if r1.EventCount(obs.EvFrozen) == 0 {
		t.Log("note: churn froze no deliveries in this workload")
	}
}

// TestFrozenEventsAccessor pins the FrozenEvents depth against the
// fingerprint's view of the frozen map.
func TestFrozenEventsAccessor(t *testing.T) {
	cfg := smallCfg()
	cfg.S = 15
	cfg.Latency = sim.LogNormalLatency{Median: 4 * time.Second, Sigma: 1.2}
	w := newWorld(t, 120, cfg, 77)
	e := New(w.ds, cfg)
	e.Bootstrap()
	e.RunLazy(6)
	for _, q := range trace.GenerateQueries(w.ds, 5)[:15] {
		e.IssueQuery(q)
	}
	e.RunEager(2)
	e.Kill(0.4)
	for i := 0; i < 4; i++ {
		e.EagerCycle()
	}
	want := 0
	for u := 0; u < e.Users(); u++ {
		want += len(e.nodes[u].frozen)
	}
	if got := e.FrozenEvents(); got != want {
		t.Fatalf("FrozenEvents = %d, want %d", got, want)
	}
}
