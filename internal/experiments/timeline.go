package experiments

import (
	"fmt"
	"time"

	"p3q/internal/core"
	"p3q/internal/metrics"
)

// Timeline reproduces the §3.5 deployment narrative in simulated wall-clock
// time: the lazy mode ticks every minute, the eager mode every 5 seconds,
// and the paper claims "the query can be accurately answered within 50
// seconds" in the lambda=1 scenario. The table reports average recall and
// the fraction of completed queries at 5-second marks after all queries are
// issued simultaneously.
func Timeline(cfg Config) []*metrics.Table {
	w := NewWorld(cfg)
	e := w.SeededEngine(cfg.HeteroConfig(1))
	clock := core.NewClock(e)
	runs, refs := w.issue(e)

	t := metrics.NewTable(
		"Section 3.5 — query timeline (lazy 60s / eager 5s, lambda=1)",
		"seconds", "avg recall", "% queries done")
	record := func() {
		done := 0
		for _, qr := range runs {
			if qr.Done() {
				done++
			}
		}
		t.Add(fmt.Sprintf("%.0f", clock.Now().Seconds()),
			metrics.F(meanRecall(runs, refs), 3),
			metrics.F(100*float64(done)/float64(len(runs)), 1))
	}
	record()
	for i := 0; i < 24; i++ { // two simulated minutes in 5s steps
		clock.Advance(5 * time.Second)
		record()
		if e.AllQueriesDone() {
			break
		}
	}
	return []*metrics.Table{t}
}
