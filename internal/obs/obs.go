// Package obs is the engine's runtime telemetry layer: counters, query
// lifecycle events, and host timing histograms collected while the engine
// runs, surfaced by cmd/p3qsim (-obs-out), the p3qd /metrics endpoint,
// and p3qctl stats.
//
// The package enforces a strict two-plane contract:
//
//   - The sim plane (counters, per-shard intent tallies, QueryEvents) is
//     derived only from engine state — cycle sequence numbers, the virtual
//     clock, ledger byte totals, query lifecycle transitions. Given the
//     same dataset, configuration and seed, a run produces the same
//     sim-plane values, so tests may fingerprint them (SimFingerprint).
//   - The host plane (per-phase and per-shard hostclock histograms,
//     commit-skew samples, runtime.MemStats readings) measures the machine
//     the run happens to execute on. Host-plane values are
//     observability-only by contract: they must never flow back into
//     engine state, scheduling decisions, or sim-plane events. The
//     obspurity analyzer (internal/lint) enforces this statically in the
//     deterministic engine packages.
//
// A nil *Registry is a valid registry: every method nil-checks its
// receiver and returns immediately, so the engine's hot paths instrument
// unconditionally and a run without telemetry pays only a predictable
// branch per probe — no interface boxing, no allocation (the hotalloc
// analyzer holds the callers to that).
//
// This package is runtime telemetry about the engine's execution;
// internal/metrics holds the *paper evaluation* metrics (recall,
// bandwidth distributions) that reproduce the EDBT figures.
package obs

import (
	"fmt"
	"io"
	"math/bits"
	"runtime"
	"time"
)

// CounterID indexes the sim-plane counters. The values are wire-stable
// within a build only (the JSONL and Prometheus surfaces emit names, not
// indices), so new counters append freely.
type CounterID uint8

const (
	// CLazyCycles counts completed lazy cycles.
	CLazyCycles CounterID = iota
	// CEagerCycles counts completed eager cycles.
	CEagerCycles
	// CGossipsPlanned counts planned (initiator, query) eager gossips.
	CGossipsPlanned
	// CPartialsDelivered counts partial result lists that reached their
	// querier.
	CPartialsDelivered
	// CEventsScheduled counts asynchronous delivery events enqueued.
	CEventsScheduled
	// CCommitBytes accumulates the ledger bytes folded by commit phases.
	CCommitBytes

	numCounters
)

// counterNames are the exported metric names, index-aligned with the
// CounterID constants.
var counterNames = [numCounters]string{
	"lazy_cycles",
	"eager_cycles",
	"gossips_planned",
	"partials_delivered",
	"events_scheduled",
	"commit_bytes",
}

// String returns the counter's exported metric name.
func (c CounterID) String() string {
	if int(c) < len(counterNames) {
		return counterNames[c]
	}
	return fmt.Sprintf("counter_%d", uint8(c))
}

// EventKind classifies query lifecycle events.
type EventKind uint8

const (
	// EvIssued: the query was accepted and locally processed.
	EvIssued EventKind = iota
	// EvFirstPartial: the first gossip-delivered partial result arrived.
	EvFirstPartial
	// EvForward: a node forwarded the query and a remaining-list branch to
	// a destination (Node → Peer, Bytes of forwarded list).
	EvForward
	// EvReturn: a destination sent an unresolved remaining-list portion
	// back to its initiator (Node → Peer, Bytes of returned list).
	EvReturn
	// EvPartial: a destination sent a partial result list to the querier
	// (Node → Peer, Bytes of the list).
	EvPartial
	// EvSettled: the query completed (recall 1).
	EvSettled
	// EvStalled: the querier departed mid-query; the query suspended.
	EvStalled
	// EvResumed: the querier revived; the query resumed.
	EvResumed
	// EvFrozen: an in-flight delivery fired at a departed node (Node) and
	// was parked for redelivery.
	EvFrozen
	// EvReplayed: a frozen delivery was re-scheduled after Node revived.
	EvReplayed

	numEventKinds
)

// eventNames are the exported event names, index-aligned with the
// EventKind constants.
var eventNames = [numEventKinds]string{
	"issued",
	"first_partial",
	"forward",
	"return",
	"partial",
	"settled",
	"stalled",
	"resumed",
	"frozen",
	"replayed",
}

// String returns the event kind's exported name.
func (k EventKind) String() string {
	if int(k) < len(eventNames) {
		return eventNames[k]
	}
	return fmt.Sprintf("event_%d", uint8(k))
}

// QueryEvent is one sim-plane query lifecycle event. Every field derives
// from engine state: Cycle is the engine's cycle sequence counter at
// emission, At the virtual clock, Node/Peer the acting nodes (Peer zero
// when the event has a single actor), Bytes the ledger delta the event
// accounts for. Events are plain values — emitting one neither allocates
// nor boxes.
type QueryEvent struct {
	Kind  EventKind
	Qid   uint64
	Cycle uint64
	At    time.Duration
	Node  uint64
	Peer  uint64
	Bytes uint64
}

// Phase identifies one hostclock-timed phase of a cycle.
type Phase uint8

const (
	// PhasePlan is the parallel planning phase.
	PhasePlan Phase = iota
	// PhaseCommit is the sharded commit phase (including the canonical
	// ledger merge and the sequential finalize/schedule pass).
	PhaseCommit

	numPhases
)

// phaseNames are index-aligned with the Phase constants.
var phaseNames = [numPhases]string{"plan", "commit"}

// String returns the phase's exported name.
func (p Phase) String() string {
	if int(p) < len(phaseNames) {
		return phaseNames[p]
	}
	return fmt.Sprintf("phase_%d", uint8(p))
}

// histBuckets is the number of log2(ns) histogram buckets: bucket i counts
// samples with bits.Len64(ns) == i, i.e. d in [2^(i-1), 2^i) ns, which
// spans sub-nanosecond to ~9 minutes.
const histBuckets = 40

// Histogram is a fixed-bucket log2 duration histogram. The zero value is
// ready to use; copying one yields an independent snapshot.
type Histogram struct {
	buckets [histBuckets]uint64
	count   uint64
	sum     time.Duration
	max     time.Duration
}

// Observe records one duration sample.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	i := bits.Len64(uint64(d))
	if i >= histBuckets {
		i = histBuckets - 1
	}
	h.buckets[i]++
	h.count++
	h.sum += d
	if d > h.max {
		h.max = d
	}
}

// Count returns the number of samples observed.
func (h *Histogram) Count() uint64 { return h.count }

// Sum returns the total of all samples.
func (h *Histogram) Sum() time.Duration { return h.sum }

// Max returns the largest sample observed (0 before any sample).
func (h *Histogram) Max() time.Duration { return h.max }

// Mean returns the mean sample (0 before any sample).
func (h *Histogram) Mean() time.Duration {
	if h.count == 0 {
		return 0
	}
	return h.sum / time.Duration(h.count)
}

// Registry collects one run's telemetry. It is not internally
// synchronized: the engine contract (methods called from one goroutine at
// a time) extends to the registry, and concurrent readers — the daemon's
// /metrics handler — must hold whatever lock serializes engine access.
//
// A nil *Registry disables collection: every method is nil-receiver-safe.
type Registry struct {
	// Sim plane.
	counters     [numCounters]uint64
	eventCounts  [numEventKinds]uint64
	shardIntents []uint64
	sink         func(QueryEvent)

	// Host plane.
	phases   [numPhases]Histogram
	shardDur Histogram
	skew     Histogram
	skewLast time.Duration
	mem      runtime.MemStats
	memValid bool
}

// New returns an empty registry.
func New() *Registry { return &Registry{} }

// SetSink installs fn as the query-event sink: every Event call forwards
// the event to it, in emission order. A nil fn (and a nil registry's
// default) keeps events counted per kind but otherwise unobserved, so the
// steady state stores nothing.
func (r *Registry) SetSink(fn func(QueryEvent)) {
	if r == nil {
		return
	}
	r.sink = fn
}

// Inc adds 1 to a sim-plane counter.
func (r *Registry) Inc(c CounterID) { r.Add(c, 1) }

// Add adds delta to a sim-plane counter.
func (r *Registry) Add(c CounterID, delta uint64) {
	if r == nil {
		return
	}
	r.counters[c] += delta
}

// Counter returns a sim-plane counter's current value.
func (r *Registry) Counter(c CounterID) uint64 {
	if r == nil {
		return 0
	}
	return r.counters[c]
}

// Event records one query lifecycle event: counted per kind always,
// forwarded to the sink when one is installed.
func (r *Registry) Event(ev QueryEvent) {
	if r == nil {
		return
	}
	r.eventCounts[ev.Kind]++
	if r.sink != nil {
		r.sink(ev)
	}
}

// EventCount returns how many events of the kind were emitted.
func (r *Registry) EventCount(k EventKind) uint64 {
	if r == nil {
		return 0
	}
	return r.eventCounts[k]
}

// AddShardIntent accumulates the commit-phase ledger bytes shard applied
// this phase — the sim-plane per-shard work distribution. The vector is
// indexed by shard and sized on first use; shard counts are fixed by
// Config.Workers, so the growth is a one-time cost.
func (r *Registry) AddShardIntent(shard int, bytes uint64) {
	if r == nil {
		return
	}
	for len(r.shardIntents) <= shard {
		r.shardIntents = append(r.shardIntents, 0)
	}
	r.shardIntents[shard] += bytes
}

// SimFingerprint hashes the sim plane (counters, event counts, per-shard
// intents) with FNV-1a. Two runs over the same dataset, configuration and
// seed must produce the same value — the telemetry analogue of the engine
// fingerprint, pinned by the invariance tests.
func (r *Registry) SimFingerprint() uint64 {
	if r == nil {
		return 0
	}
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xFF
			h *= prime
			v >>= 8
		}
	}
	for _, v := range r.counters {
		mix(v)
	}
	for _, v := range r.eventCounts {
		mix(v)
	}
	for _, v := range r.shardIntents {
		mix(v)
	}
	return h
}

// SamplePhase records one host-plane phase timing window.
func (r *Registry) SamplePhase(p Phase, d time.Duration) {
	if r == nil {
		return
	}
	r.phases[p].Observe(d)
}

// PhaseTotal returns the cumulative host time sampled for the phase.
func (r *Registry) PhaseTotal(p Phase) time.Duration {
	if r == nil {
		return 0
	}
	return r.phases[p].Sum()
}

// SampleShardDuration records one shard committer's host-plane wall time
// for one commit phase.
func (r *Registry) SampleShardDuration(d time.Duration) {
	if r == nil {
		return
	}
	r.shardDur.Observe(d)
}

// SampleCommitSkew records one commit phase's shard skew: the max-min
// spread of its shard committers' wall times. The Amdahl limit of the
// sharded commit is its slowest shard, so skew is the number the
// locality-aware scheduling work (ROADMAP) optimizes.
func (r *Registry) SampleCommitSkew(skew time.Duration) {
	if r == nil {
		return
	}
	r.skewLast = skew
	r.skew.Observe(skew)
}

// CommitSkew returns the last, maximum and mean commit-phase shard skew
// and the number of commit phases sampled.
func (r *Registry) CommitSkew() (last, max, mean time.Duration, samples uint64) {
	if r == nil {
		return 0, 0, 0, 0
	}
	return r.skewLast, r.skew.Max(), r.skew.Mean(), r.skew.Count()
}

// SampleMemStats reads runtime.MemStats for the next WritePrometheus.
// Host plane: the read lives here so the deterministic engine packages
// never touch the runtime directly.
func (r *Registry) SampleMemStats() {
	if r == nil {
		return
	}
	runtime.ReadMemStats(&r.mem)
	r.memValid = true
}

// WritePrometheus writes the registry in the Prometheus text exposition
// format, every metric prefixed p3q_. Counters and events are the sim
// plane; *_seconds histograms, skew and memstats gauges are the host
// plane. Callers must serialize against the goroutine driving the engine.
func (r *Registry) WritePrometheus(w io.Writer) {
	if r == nil {
		return
	}
	for c := CounterID(0); c < numCounters; c++ {
		fmt.Fprintf(w, "# TYPE p3q_%s counter\np3q_%s %d\n", c, c, r.counters[c])
	}
	fmt.Fprintf(w, "# TYPE p3q_query_events_total counter\n")
	for k := EventKind(0); k < numEventKinds; k++ {
		fmt.Fprintf(w, "p3q_query_events_total{kind=%q} %d\n", k.String(), r.eventCounts[k])
	}
	fmt.Fprintf(w, "# TYPE p3q_shard_intent_bytes counter\n")
	for i, v := range r.shardIntents {
		fmt.Fprintf(w, "p3q_shard_intent_bytes{shard=\"%d\"} %d\n", i, v)
	}
	fmt.Fprintf(w, "# TYPE p3q_phase_duration_seconds histogram\n")
	for p := Phase(0); p < numPhases; p++ {
		writeHistogram(w, "p3q_phase_duration_seconds", fmt.Sprintf("phase=%q", p.String()), &r.phases[p])
	}
	fmt.Fprintf(w, "# TYPE p3q_shard_commit_seconds histogram\n")
	writeHistogram(w, "p3q_shard_commit_seconds", "", &r.shardDur)
	fmt.Fprintf(w, "# TYPE p3q_commit_skew_seconds histogram\n")
	writeHistogram(w, "p3q_commit_skew_seconds", "", &r.skew)
	fmt.Fprintf(w, "# TYPE p3q_commit_skew_last_seconds gauge\np3q_commit_skew_last_seconds %g\n", r.skewLast.Seconds())
	if r.memValid {
		fmt.Fprintf(w, "# TYPE p3q_host_heap_alloc_bytes gauge\np3q_host_heap_alloc_bytes %d\n", r.mem.HeapAlloc)
		fmt.Fprintf(w, "# TYPE p3q_host_total_alloc_bytes counter\np3q_host_total_alloc_bytes %d\n", r.mem.TotalAlloc)
		fmt.Fprintf(w, "# TYPE p3q_host_gc_cycles_total counter\np3q_host_gc_cycles_total %d\n", r.mem.NumGC)
	}
}

// writeHistogram emits one histogram in Prometheus exposition format:
// cumulative le buckets (upper bound 2^i ns in seconds) for the occupied
// prefix, then +Inf, sum and count. labels is either empty or a single
// rendered key="value" pair.
func writeHistogram(w io.Writer, name, labels string, h *Histogram) {
	sep := ""
	if labels != "" {
		sep = ","
	}
	cum := uint64(0)
	top := 0
	for i, c := range h.buckets {
		if c > 0 {
			top = i + 1
		}
	}
	for i := 0; i < top; i++ {
		cum += h.buckets[i]
		le := time.Duration(uint64(1) << uint(i)).Seconds()
		fmt.Fprintf(w, "%s_bucket{%s%sle=\"%g\"} %d\n", name, labels, sep, le, cum)
	}
	fmt.Fprintf(w, "%s_bucket{%s%sle=\"+Inf\"} %d\n", name, labels, sep, h.count)
	if labels == "" {
		fmt.Fprintf(w, "%s_sum %g\n", name, h.sum.Seconds())
		fmt.Fprintf(w, "%s_count %d\n", name, h.count)
	} else {
		fmt.Fprintf(w, "%s_sum{%s} %g\n", name, labels, h.sum.Seconds())
		fmt.Fprintf(w, "%s_count{%s} %d\n", name, labels, h.count)
	}
}
