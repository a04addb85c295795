package sim

// This file is the event-driven half of the substrate: a deterministic
// priority queue of timestamped events and the pluggable per-message
// latency models that feed it. The cycle-driven engine (package core) uses
// them to model asynchronous eager delivery — forwarded lists, returned
// portions and partial results arriving at model-drawn times instead of at
// cycle boundaries — while keeping runs byte-for-byte deterministic.
//
// Determinism contract: events are ordered by (At, Seq), where Seq is the
// scheduling order. As long as events are scheduled from a canonical
// sequential pass (the engine schedules in the canonical pair order) and
// popped sequentially, the delivery order is a pure function of the run's
// inputs — independent of worker count and map iteration order. Latency
// models draw exclusively from the rng stream passed to Delay, never from
// shared state, so the engine can hand each message its own split stream.

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"p3q/internal/randx"
)

// Event is one scheduled occurrence: an opaque payload due at a virtual
// time. Seq breaks ties deterministically (earlier scheduled fires first).
type Event struct {
	At      time.Duration
	Seq     uint64
	Payload any
}

// EventQueue is a deterministic min-heap of events ordered by (At, Seq).
// The zero value is ready to use. It is not safe for concurrent use; the
// engine schedules and pops from its single-threaded sections only.
type EventQueue struct {
	heap    []Event
	nextSeq uint64
}

// NewEventQueue returns an empty queue.
func NewEventQueue() *EventQueue { return &EventQueue{} }

// Len returns the number of pending events.
func (q *EventQueue) Len() int { return len(q.heap) }

// Schedule enqueues a payload at the given virtual time. Events scheduled
// at the same time fire in scheduling order.
func (q *EventQueue) Schedule(at time.Duration, payload any) {
	q.heap = append(q.heap, Event{At: at, Seq: q.nextSeq, Payload: payload})
	q.nextSeq++
	q.up(len(q.heap) - 1)
}

// NextSeq returns the scheduling counter: the Seq the next Schedule call
// will assign. Checkpointing persists it so a restored queue continues the
// original tie-break sequence.
func (q *EventQueue) NextSeq() uint64 { return q.nextSeq }

// Pending returns a copy of the pending events sorted by (At, Seq) — the
// exact order PopUntil would drain them in. Checkpointing serializes this
// view; payloads are shared with the queue, not cloned.
func (q *EventQueue) Pending() []Event {
	out := make([]Event, len(q.heap))
	copy(out, q.heap)
	sort.Slice(out, func(i, j int) bool {
		if out[i].At != out[j].At {
			return out[i].At < out[j].At
		}
		return out[i].Seq < out[j].Seq
	})
	return out
}

// RestorePending replaces the queue's contents from a checkpoint: events
// must be sorted by (At, Seq) with strictly increasing Seq values below
// nextSeq, as produced by Pending plus the queue's scheduling counter. A
// (At, Seq)-sorted slice already satisfies the min-heap invariant, so the
// restored queue pops in exactly the captured order and later Schedule
// calls continue the original Seq sequence.
func (q *EventQueue) RestorePending(events []Event, nextSeq uint64) error {
	seen := make(map[uint64]struct{}, len(events))
	for i, ev := range events {
		if ev.Seq >= nextSeq {
			return fmt.Errorf("sim: RestorePending event %d has Seq %d >= nextSeq %d", i, ev.Seq, nextSeq)
		}
		if _, dup := seen[ev.Seq]; dup {
			return fmt.Errorf("sim: RestorePending duplicate Seq %d", ev.Seq)
		}
		seen[ev.Seq] = struct{}{}
		if i > 0 {
			prev := events[i-1]
			if ev.At < prev.At || (ev.At == prev.At && ev.Seq < prev.Seq) {
				return fmt.Errorf("sim: RestorePending events not in (At, Seq) order at index %d", i)
			}
		}
	}
	q.heap = append(q.heap[:0], events...)
	q.nextSeq = nextSeq
	return nil
}

// NextAt returns the due time of the earliest pending event.
func (q *EventQueue) NextAt() (time.Duration, bool) {
	if len(q.heap) == 0 {
		return 0, false
	}
	return q.heap[0].At, true
}

// PopUntil removes and returns the earliest event due at or before t. It
// returns ok=false when no pending event is due yet.
func (q *EventQueue) PopUntil(t time.Duration) (Event, bool) {
	if len(q.heap) == 0 || q.heap[0].At > t {
		return Event{}, false
	}
	ev := q.heap[0]
	last := len(q.heap) - 1
	q.heap[0] = q.heap[last]
	q.heap = q.heap[:last]
	if last > 0 {
		q.down(0)
	}
	return ev, true
}

// before is the heap order: earlier due time first, scheduling order on
// ties.
func (q *EventQueue) before(i, j int) bool {
	if q.heap[i].At != q.heap[j].At {
		return q.heap[i].At < q.heap[j].At
	}
	return q.heap[i].Seq < q.heap[j].Seq
}

func (q *EventQueue) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.before(i, parent) {
			return
		}
		q.heap[i], q.heap[parent] = q.heap[parent], q.heap[i]
		i = parent
	}
}

func (q *EventQueue) down(i int) {
	n := len(q.heap)
	for {
		left, right := 2*i+1, 2*i+2
		smallest := i
		if left < n && q.before(left, smallest) {
			smallest = left
		}
		if right < n && q.before(right, smallest) {
			smallest = right
		}
		if smallest == i {
			return
		}
		q.heap[i], q.heap[smallest] = q.heap[smallest], q.heap[i]
		i = smallest
	}
}

// LatencyModel draws the one-way delivery latency of a message. A nil
// model means zero delay: every message of a cycle arrives at the cycle's
// start, the paper's PeerSim-style round model.
//
// Implementations must be pure: the returned delay may depend only on the
// arguments and on draws from rng (the caller hands every message its own
// split stream), never on shared mutable state — that is what keeps
// latency-modelled runs deterministic for every worker count.
type LatencyModel interface {
	Delay(from, to NodeID, k Kind, rng *randx.Source) time.Duration
}

// FixedLatency is a constant one-way delay for every message.
type FixedLatency time.Duration

// Delay implements LatencyModel.
func (f FixedLatency) Delay(from, to NodeID, k Kind, rng *randx.Source) time.Duration {
	if f < 0 {
		return 0
	}
	return time.Duration(f)
}

// UniformLatency draws delays uniformly from [Min, Max].
type UniformLatency struct {
	Min, Max time.Duration
}

// Delay implements LatencyModel.
func (u UniformLatency) Delay(from, to NodeID, k Kind, rng *randx.Source) time.Duration {
	lo, hi := u.Min, u.Max
	if lo < 0 {
		lo = 0
	}
	if hi <= lo {
		return lo
	}
	return lo + time.Duration(rng.Float64()*float64(hi-lo))
}

// LogNormalLatency draws log-normally distributed delays — the classical
// shape of Internet round-trip times: most messages arrive near the
// median, a long tail arrives much later. Sigma is the shape parameter of
// the underlying normal (0.5-1.0 is Internet-like); Sigma <= 0 degenerates
// to a fixed Median delay.
type LogNormalLatency struct {
	Median time.Duration
	Sigma  float64
}

// Delay implements LatencyModel.
func (l LogNormalLatency) Delay(from, to NodeID, k Kind, rng *randx.Source) time.Duration {
	if l.Median <= 0 {
		return 0
	}
	if l.Sigma <= 0 {
		return l.Median
	}
	d := time.Duration(float64(l.Median) * math.Exp(l.Sigma*rng.NormFloat64()))
	if d < 0 {
		return 0
	}
	return d
}

// GeoLatency models a geo-distributed deployment: nodes live in zones and
// each (zone, zone) pair has a base one-way latency, multiplied by a
// uniform jitter factor in [1, 1+Jitter). Zones maps node IDs to zones;
// when nil (or too short), a node's zone is its ID modulo the matrix size
// — a deterministic round-robin placement.
type GeoLatency struct {
	Zones  []int
	RTT    [][]time.Duration
	Jitter float64
}

// NewGeoLatency builds the symmetric intra/inter zone model of the CLI
// spec: zones zones with intra on the matrix diagonal and inter everywhere
// else, nodes assigned round-robin (id modulo zones).
func NewGeoLatency(zones int, intra, inter time.Duration) GeoLatency {
	if zones < 1 {
		zones = 1
	}
	rtt := make([][]time.Duration, zones)
	for i := range rtt {
		rtt[i] = make([]time.Duration, zones)
		for j := range rtt[i] {
			if i == j {
				rtt[i][j] = intra
			} else {
				rtt[i][j] = inter
			}
		}
	}
	return GeoLatency{RTT: rtt}
}

// zone returns the zone of a node.
func (g GeoLatency) zone(id NodeID) int {
	if int(id) < len(g.Zones) {
		z := g.Zones[id]
		if z >= 0 && z < len(g.RTT) {
			return z
		}
	}
	if len(g.RTT) == 0 {
		return 0
	}
	return int(id) % len(g.RTT)
}

// Delay implements LatencyModel.
func (g GeoLatency) Delay(from, to NodeID, k Kind, rng *randx.Source) time.Duration {
	if len(g.RTT) == 0 {
		return 0
	}
	base := g.RTT[g.zone(from)][g.zone(to)]
	if base < 0 {
		base = 0
	}
	if g.Jitter <= 0 {
		return base
	}
	return time.Duration(float64(base) * (1 + g.Jitter*rng.Float64()))
}

// ParseLatency builds a latency model from a CLI spec:
//
//	none | sync | ""                 zero delay (nil model)
//	fixed:<d>                        constant delay, e.g. fixed:50ms
//	uniform:<min>,<max>              uniform in [min, max], e.g. uniform:10ms,200ms
//	lognormal:<median>,<sigma>       log-normal, e.g. lognormal:50ms,0.8
//	geo:<zones>,<intra>,<inter>      zone matrix: <zones> zones (nodes assigned
//	                                 round-robin), <intra> within a zone,
//	                                 <inter> across zones, e.g. geo:3,25ms,120ms
//
// Durations use Go syntax (50ms, 1.5s). The cmd/p3qsim -latency flag and
// the experiments harness parse their specs through this function.
func ParseLatency(spec string) (LatencyModel, error) {
	spec = strings.TrimSpace(spec)
	switch spec {
	case "", "none", "sync":
		return nil, nil
	}
	name, args, _ := strings.Cut(spec, ":")
	parts := strings.Split(args, ",")
	dur := func(i int) (time.Duration, error) {
		d, err := time.ParseDuration(strings.TrimSpace(parts[i]))
		if err != nil || d < 0 {
			return 0, fmt.Errorf("sim: latency spec %q: bad duration %q", spec, parts[i])
		}
		return d, nil
	}
	switch name {
	case "fixed":
		if len(parts) != 1 {
			return nil, fmt.Errorf("sim: latency spec %q: want fixed:<duration>", spec)
		}
		d, err := dur(0)
		if err != nil {
			return nil, err
		}
		return FixedLatency(d), nil
	case "uniform":
		if len(parts) != 2 {
			return nil, fmt.Errorf("sim: latency spec %q: want uniform:<min>,<max>", spec)
		}
		lo, err := dur(0)
		if err != nil {
			return nil, err
		}
		hi, err := dur(1)
		if err != nil {
			return nil, err
		}
		if hi < lo {
			return nil, fmt.Errorf("sim: latency spec %q: max below min", spec)
		}
		return UniformLatency{Min: lo, Max: hi}, nil
	case "lognormal":
		if len(parts) != 2 {
			return nil, fmt.Errorf("sim: latency spec %q: want lognormal:<median>,<sigma>", spec)
		}
		med, err := dur(0)
		if err != nil {
			return nil, err
		}
		sigma, err := strconv.ParseFloat(strings.TrimSpace(parts[1]), 64)
		if err != nil || sigma < 0 {
			return nil, fmt.Errorf("sim: latency spec %q: bad sigma %q", spec, parts[1])
		}
		return LogNormalLatency{Median: med, Sigma: sigma}, nil
	case "geo":
		if len(parts) != 3 {
			return nil, fmt.Errorf("sim: latency spec %q: want geo:<zones>,<intra>,<inter>", spec)
		}
		zones, err := strconv.Atoi(strings.TrimSpace(parts[0]))
		if err != nil || zones < 1 {
			return nil, fmt.Errorf("sim: latency spec %q: bad zone count %q", spec, parts[0])
		}
		intra, err := dur(1)
		if err != nil {
			return nil, err
		}
		inter, err := dur(2)
		if err != nil {
			return nil, err
		}
		return NewGeoLatency(zones, intra, inter), nil
	}
	return nil, fmt.Errorf("sim: unknown latency model %q (want none, fixed, uniform, lognormal or geo)", spec)
}
