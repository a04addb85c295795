package experiments

import (
	"fmt"

	"p3q/internal/core"
	"p3q/internal/metrics"
)

// The timeline runs two simulated minutes in 5s steps, with a lazy cycle
// every lazyEvery-th step (§3.5: 12 eager periods per lazy period).
const (
	timelineSteps = 24
	lazyEvery     = int(core.LazyPeriod / core.EagerPeriod)
)

// timelineStep runs on e the cycles due at the end of the step-th eager
// period (step ≥ 1) of the §3.5 schedule: the lazy mode ticks every
// lazyEvery-th step, before that step's eager cycle, and the eager mode
// works only while queries are in flight (it is on-demand, §2.2).
func timelineStep(e interface {
	LazyCycle()
	EagerCycle()
	AllQueriesDone() bool
}, step int) {
	if step%lazyEvery == 0 {
		e.LazyCycle()
	}
	if !e.AllQueriesDone() {
		e.EagerCycle()
	}
}

// Timeline reproduces the §3.5 deployment narrative in simulated wall-clock
// time: the lazy mode ticks every minute, the eager mode every 5 seconds,
// and the paper claims "the query can be accurately answered within 50
// seconds" in the lambda=1 scenario. The table reports average recall and
// the fraction of completed queries at 5-second marks after all queries are
// issued simultaneously.
func Timeline(cfg Config) []*metrics.Table {
	w := NewWorld(cfg)
	e := w.SeededEngine(cfg.HeteroConfig(1))
	runs, refs := w.issue(e)

	t := metrics.NewTable(
		"Section 3.5 — query timeline (lazy 60s / eager 5s, lambda=1)",
		"seconds", "avg recall", "% queries done")
	record := func(step int) {
		done := 0
		for _, qr := range runs {
			if qr.Done() {
				done++
			}
		}
		t.Add(fmt.Sprintf("%.0f", float64(step)*core.EagerPeriod.Seconds()),
			metrics.F(meanRecall(runs, refs), 3),
			metrics.F(100*float64(done)/float64(len(runs)), 1))
	}
	record(0)
	for step := 1; step <= timelineSteps; step++ {
		timelineStep(e, step)
		record(step)
		if e.AllQueriesDone() {
			break
		}
	}
	return []*metrics.Table{t}
}
