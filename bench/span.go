package main

import (
	"time"
)

// span is one timed call from the harness into a layer. Spans are
// recorded by the driver goroutine only, so they nest strictly: Parent is
// the span that was open when this one began (-1 for an op), and Op
// numbers the benchmark operation both belong to.
type span struct {
	ID      int                `json:"id"`
	Parent  int                `json:"parent"`
	Op      int                `json:"op"`
	Name    string             `json:"name"`
	StartUS float64            `json:"start_us"`
	DurUS   float64            `json:"dur_us"`
	SelfUS  float64            `json:"self_us"`
	Counts  map[string]float64 `json:"counts,omitempty"`

	start    time.Time
	children time.Duration
}

// recorder keeps the spans of one traced pass in memory until the run
// ends. A nil recorder is tracing switched off: every method is a no-op,
// which is how the untraced pass runs the very same workload code.
type recorder struct {
	origin time.Time
	spans  []span
	open   []int
	op     int
}

func newRecorder() *recorder { return &recorder{origin: time.Now(), op: -1} }

func noop() {}

// beginOp opens the root span of the next benchmark operation.
func (r *recorder) beginOp(name string) func() {
	if r == nil {
		return noop
	}
	r.op++
	return r.span(name)
}

// span opens a span and returns the function that closes it. Self time —
// the span's duration minus what its children cover — is settled on
// close, when every child has already closed.
func (r *recorder) span(name string) func() {
	if r == nil {
		return noop
	}
	id := len(r.spans)
	parent := -1
	if len(r.open) > 0 {
		parent = r.open[len(r.open)-1]
	}
	now := time.Now()
	r.spans = append(r.spans, span{
		ID: id, Parent: parent, Op: r.op, Name: name,
		StartUS: float64(now.Sub(r.origin).Nanoseconds()) / 1e3,
		start:   now,
	})
	r.open = append(r.open, id)
	return func() {
		s := &r.spans[id]
		dur := time.Since(s.start)
		s.DurUS = float64(dur.Nanoseconds()) / 1e3
		s.SelfUS = float64((dur - s.children).Nanoseconds()) / 1e3
		r.open = r.open[:len(r.open)-1]
		if parent >= 0 {
			r.spans[parent].children += dur
		}
	}
}

// count attaches a counter reading to the innermost open span: work done
// at a boundary the driver goroutine does not cross itself (connection
// reads and writes happen on the daemons' goroutines).
func (r *recorder) count(name string, v float64) {
	if r == nil || len(r.open) == 0 {
		return
	}
	s := &r.spans[r.open[len(r.open)-1]]
	if s.Counts == nil {
		s.Counts = make(map[string]float64)
	}
	s.Counts[name] += v
}

// durationsMS returns the duration of every closed span of that name.
func (r *recorder) durationsMS(name string) []float64 {
	if r == nil {
		return nil
	}
	var out []float64
	for i := range r.spans {
		if r.spans[i].Name == name {
			out = append(out, r.spans[i].DurUS/1e3)
		}
	}
	return out
}

// selfByName totals self time per span name, in milliseconds: the
// per-layer attribution of the traced pass's wall clock.
func (r *recorder) selfByName() map[string]float64 {
	out := make(map[string]float64)
	if r == nil {
		return out
	}
	for i := range r.spans {
		out[r.spans[i].Name] += r.spans[i].SelfUS / 1e3
	}
	return out
}
