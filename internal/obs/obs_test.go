package obs

import (
	"strings"
	"testing"
	"time"
)

// TestNilRegistry pins the nil-receiver contract: every method of a nil
// registry is a no-op returning zero values, so the engine instruments
// unconditionally.
func TestNilRegistry(t *testing.T) {
	var r *Registry
	r.Inc(CLazyCycles)
	r.Add(CCommitBytes, 42)
	r.Event(QueryEvent{Kind: EvIssued, Qid: 1})
	r.SetSink(func(QueryEvent) { t.Fatal("sink on nil registry") })
	r.SamplePhase(PhasePlan, time.Millisecond)
	r.SampleShardDuration(time.Millisecond)
	r.SampleCommitSkew(time.Millisecond)
	r.AddShardIntent(3, 100)
	if got := r.Counter(CLazyCycles); got != 0 {
		t.Fatalf("nil registry counter = %d, want 0", got)
	}
	if got := r.EventCount(EvIssued); got != 0 {
		t.Fatalf("nil registry event count = %d, want 0", got)
	}
	if got := r.PhaseTotal(PhasePlan); got != 0 {
		t.Fatalf("nil registry phase total = %v, want 0", got)
	}
	if got := r.SimFingerprint(); got != 0 {
		t.Fatalf("nil registry fingerprint = %d, want 0", got)
	}
	if a, g := r.SampleMemStats(); a != 0 || g != 0 {
		t.Fatalf("nil registry memstats deltas = %d, %d, want 0, 0", a, g)
	}
}

// TestCountersAndEvents exercises the sim plane: counters accumulate,
// events count per kind and stream to the sink in order.
func TestCountersAndEvents(t *testing.T) {
	r := New()
	r.Inc(CEagerCycles)
	r.Add(CEagerCycles, 2)
	if got := r.Counter(CEagerCycles); got != 3 {
		t.Fatalf("counter = %d, want 3", got)
	}
	var seen []QueryEvent
	r.SetSink(func(ev QueryEvent) { seen = append(seen, ev) })
	r.Event(QueryEvent{Kind: EvIssued, Qid: 7})
	r.Event(QueryEvent{Kind: EvForward, Qid: 7, Node: 1, Peer: 2, Bytes: 100})
	r.Event(QueryEvent{Kind: EvForward, Qid: 7, Node: 2, Peer: 3, Bytes: 50})
	if got := r.EventCount(EvForward); got != 2 {
		t.Fatalf("forward count = %d, want 2", got)
	}
	if len(seen) != 3 || seen[0].Kind != EvIssued || seen[2].Peer != 3 {
		t.Fatalf("sink saw %+v", seen)
	}
}

// TestSimFingerprint pins that the fingerprint depends on sim-plane state
// only: two registries with identical counters/events but wildly different
// host-plane samples hash identically, and a sim-plane difference changes
// the hash.
func TestSimFingerprint(t *testing.T) {
	a, b := New(), New()
	for _, r := range []*Registry{a, b} {
		r.Inc(CQueriesIssued)
		r.Event(QueryEvent{Kind: EvSettled, Qid: 1})
		r.AddShardIntent(0, 10)
		r.AddShardIntent(1, 20)
	}
	a.SamplePhase(PhasePlan, 123*time.Millisecond)
	a.SampleCommitSkew(time.Second)
	a.SampleMemStats()
	if a.SimFingerprint() != b.SimFingerprint() {
		t.Fatal("host-plane samples changed the sim fingerprint")
	}
	b.Inc(CQueriesIssued)
	if a.SimFingerprint() == b.SimFingerprint() {
		t.Fatal("sim-plane difference did not change the fingerprint")
	}
}

// TestHistogram checks bucketing, count, sum, max and mean.
func TestHistogram(t *testing.T) {
	var h Histogram
	h.Observe(time.Microsecond)
	h.Observe(3 * time.Microsecond)
	h.Observe(2 * time.Millisecond)
	h.Observe(-time.Second) // clamped to 0
	if h.Count() != 4 {
		t.Fatalf("count = %d, want 4", h.Count())
	}
	if h.Max() != 2*time.Millisecond {
		t.Fatalf("max = %v", h.Max())
	}
	want := time.Microsecond + 3*time.Microsecond + 2*time.Millisecond
	if h.Sum() != want {
		t.Fatalf("sum = %v, want %v", h.Sum(), want)
	}
	if h.Mean() != want/4 {
		t.Fatalf("mean = %v, want %v", h.Mean(), want/4)
	}
}

// TestWritePrometheus spot-checks the exposition format output.
func TestWritePrometheus(t *testing.T) {
	r := New()
	r.Add(CLazyCycles, 5)
	r.Event(QueryEvent{Kind: EvIssued})
	r.SamplePhase(PhaseCommit, 2*time.Millisecond)
	r.SampleCommitSkew(time.Millisecond)
	r.AddShardIntent(0, 64)
	r.SampleMemStats()
	var sb strings.Builder
	r.WritePrometheus(&sb)
	out := sb.String()
	for _, want := range []string{
		"p3q_lazy_cycles 5",
		`p3q_query_events_total{kind="issued"} 1`,
		`p3q_shard_intent_bytes{shard="0"} 64`,
		`p3q_phase_duration_seconds_count{phase="commit"} 1`,
		"p3q_commit_skew_seconds_count 1",
		"p3q_host_gc_cycles_total",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

// TestWritePrometheusNil pins that a nil registry writes nothing.
func TestWritePrometheusNil(t *testing.T) {
	var r *Registry
	var sb strings.Builder
	r.WritePrometheus(&sb)
	if sb.Len() != 0 {
		t.Fatalf("nil registry wrote %q", sb.String())
	}
}
