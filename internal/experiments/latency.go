package experiments

import (
	"time"

	"p3q/internal/metrics"
	"p3q/internal/sim"
)

// Latency is the asynchronous-delivery extension experiment: the same
// query burst processed under different per-message latency models, with
// per-query time-to-first-result and time-to-full-recall distributions
// measured on the engine's virtual clock (EagerPeriod = 5s, the paper's
// §3.5 deployment assumption).
//
// The synchronous row ("sync") is the paper's PeerSim round model: every
// delivery lands on a cycle boundary, so times quantize to multiples of
// 5s. The modelled rows let messages arrive mid-cycle — queriers merge
// partial results the moment they land — and heavy-tailed models (the
// lognormal row, the cross-zone geo row) push a fraction of deliveries
// past the cycle boundary, delaying branch hand-offs by a full period:
// the latency-vs-recall trade-off a deployed system lives with.
func Latency(cfg Config) []*metrics.Table {
	models := []struct {
		name string
		m    sim.LatencyModel
	}{
		{"sync", nil},
		{"fixed 50ms", sim.FixedLatency(50 * time.Millisecond)},
		{"uniform 0.1-2s", sim.UniformLatency{Min: 100 * time.Millisecond, Max: 2 * time.Second}},
		{"lognormal 1s σ=1", sim.LogNormalLatency{Median: time.Second, Sigma: 1.0}},
		{"geo 3z 50ms/2.5s", sim.NewGeoLatency(3, 50*time.Millisecond, 2500*time.Millisecond)},
	}

	w := NewWorld(cfg)
	tTimes := metrics.NewTable(
		"Asynchronous eager delivery — per-query times (virtual clock, eager period 5s)",
		"model", "ttfr p50", "ttfr p90", "ttfr p99", "full p50", "full p90", "full p99", "done %", "avg recall", "avg cycles")
	for _, mc := range models {
		cc := cfg.CoreConfig(10)
		cc.Latency = mc.m
		e := w.SeededEngine(cc)
		runs, refs := w.issue(e)
		e.RunEager(cfg.Cycles * 4)

		var ttfr, full, cycles []float64
		done := 0
		for _, qr := range runs {
			cycles = append(cycles, float64(qr.Cycles()))
			if d, ok := qr.TimeToFirstResult(); ok {
				ttfr = append(ttfr, d.Seconds())
			}
			if d, ok := qr.TimeToFullRecall(); ok {
				full = append(full, d.Seconds())
				done++
			}
		}
		pf := percentiles(ttfr, 0.5, 0.9, 0.99)
		pd := percentiles(full, 0.5, 0.9, 0.99)
		tTimes.Add(mc.name,
			metrics.F(pf[0], 2), metrics.F(pf[1], 2), metrics.F(pf[2], 2),
			metrics.F(pd[0], 2), metrics.F(pd[1], 2), metrics.F(pd[2], 2),
			metrics.F(100*float64(done)/float64(len(runs)), 1),
			metrics.F(meanRecall(runs, refs), 3),
			metrics.F(metrics.Mean(cycles), 1))
	}
	return []*metrics.Table{tTimes}
}
