package experiments

import (
	"fmt"

	"p3q/internal/metrics"
	"p3q/internal/topk"
)

// fig11Departures are the departure fractions swept by Figure 11.
var fig11Departures = []float64{0, 0.1, 0.3, 0.5, 0.7, 0.9}

// Fig11a reproduces Figure 11(a): the evolution of average recall over
// eager cycles when a fraction p of users departs simultaneously before the
// queries are issued, in the lambda=1 scenario. The paper's observations to
// reproduce: recall improves slower as p grows, yet even massive departures
// leave most relevant items retrievable within 10 cycles.
func Fig11a(cfg Config) []*metrics.Table {
	return []*metrics.Table{churnRecall(cfg, 1)}
}

// Fig11b reproduces Figure 11(b): the same in the lambda=4 scenario, where
// larger stores mean more replicas and hence better resilience.
func Fig11b(cfg Config) []*metrics.Table {
	return []*metrics.Table{churnRecall(cfg, 4)}
}

func churnRecall(cfg Config, lambda float64) *metrics.Table {
	w := NewWorld(cfg)
	cycles := max(cfg.Cycles/2, 10)
	header := make([]string, len(fig11Departures))
	curves := make([][]float64, len(fig11Departures))
	for pi, p := range fig11Departures {
		header[pi] = fmt.Sprintf("p=%.0f%%", p*100)
		e := w.SeededEngine(cfg.HeteroConfig(lambda))
		e.Kill(p)
		// The baseline stays the full-information one: the querier wants
		// the items her whole personal network would have provided.
		curves[pi] = w.RecallCurve(e, cycles)
	}
	return curveTable(fmt.Sprintf("Figure 11 — average recall under departures (lambda=%g)", lambda),
		header, steps(cycles, 1), curves, 3)
}

// Fig11c reproduces Figure 11(c): the percentage of queries that cannot
// reach recall 1 no matter how long the querier waits, because some
// personal-network profiles are no longer available anywhere among the
// online nodes. The paper's observation to reproduce: the fraction grows
// with the departure percentage and is much smaller for lambda=4 (more
// replicas; < 5% even at 50% departures at paper scale).
func Fig11c(cfg Config) []*metrics.Table {
	w := NewWorld(cfg)
	t := metrics.NewTable("Figure 11c — % of queries unable to reach recall 1",
		"departure %", "l=1", "l=4")
	incomplete := func(lambda, p float64) string {
		e := w.SeededEngine(cfg.HeteroConfig(lambda))
		e.Kill(p)
		runs, refs := w.issue(e)
		e.RunEager(cfg.Cycles * 3)
		n := 0
		for i, qr := range runs {
			if topk.Recall(qr.Results(), refs[i]) < 1 {
				n++
			}
		}
		pct := 0.0
		if len(runs) > 0 {
			pct = 100 * float64(n) / float64(len(runs))
		}
		return metrics.F(pct, 1)
	}
	for _, p := range []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9} {
		t.Add(fmt.Sprintf("%.0f", p*100), incomplete(1, p), incomplete(4, p))
	}
	return []*metrics.Table{t}
}
