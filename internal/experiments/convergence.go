package experiments

import (
	"p3q/internal/core"
	"p3q/internal/metrics"
	"p3q/internal/tagging"
)

// Fig2 reproduces Figure 2: the convergence speed of personal networks in
// lazy mode. For every uniform storage scenario c, nodes start with empty
// personal networks and bootstrap random views only; the average success
// ratio against the offline-computed ideal networks is sampled as lazy
// cycles accumulate. The paper's observations to reproduce: more stored
// profiles converge faster, and even c=10 identifies most neighbours
// eventually.
func Fig2(cfg Config) []*metrics.Table {
	w := NewWorld(cfg)
	cValues := cfg.UniformCValues()
	cycles := cfg.Cycles * 5 // Figure 2 runs to 500 cycles at paper scale
	step := max(cycles/20, 1)
	curves := make([][]float64, len(cValues))
	for ci, c := range cValues {
		e := core.New(w.DS, cfg.CoreConfig(c))
		e.Bootstrap()
		curves[ci] = lazyCurve(e, cycles, step, func() float64 { return avgSuccessRatio(e, w) })
	}
	return []*metrics.Table{curveTable("Figure 2 — average success ratio vs lazy cycles",
		labels("c=%d", cValues), steps(cycles, step), curves, 3)}
}

// avgSuccessRatio measures §3.2.1's success ratio averaged over all users.
func avgSuccessRatio(e *core.Engine, w *World) float64 {
	vals := make([]float64, 0, e.Users())
	for u := 0; u < e.Users(); u++ {
		scores := make(map[tagging.UserID]int)
		for _, entry := range e.Node(tagging.UserID(u)).PersonalNetwork().Ranking() {
			scores[entry.ID] = entry.Score
		}
		vals = append(vals, metrics.SuccessRatio(scores, w.Ideal[u]))
	}
	return metrics.Mean(vals)
}
