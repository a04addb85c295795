package experiments

import (
	"p3q/internal/metrics"
)

// fig3Alphas are the split parameters swept by Figure 3 and by Theory.
var fig3Alphas = []float64{0, 0.1, 0.3, 0.5, 0.7, 0.9, 1}

// Fig3 reproduces Figure 3: the evolution of average recall over eager
// cycles for different values of the split parameter alpha, with c=10.
// The paper's observations to reproduce: alpha=0.5 converges fastest, the
// closer alpha is to 0.5 the faster, and the extremes (0: chain routing;
// 1: querier asks neighbours one by one) are slowest — confirming
// Theorem 2.2 empirically.
func Fig3(cfg Config) []*metrics.Table {
	w := NewWorld(cfg)
	curves := make([][]float64, len(fig3Alphas))
	for ai, alpha := range fig3Alphas {
		cc := cfg.CoreConfig(10)
		cc.Alpha = alpha
		curves[ai] = w.RecallCurve(w.SeededEngine(cc), cfg.Cycles)
	}
	return []*metrics.Table{curveTable("Figure 3 — average recall vs cycles, alpha sweep (c=10)",
		labels("a=%.1f", fig3Alphas), steps(cfg.Cycles, 1), curves, 3)}
}

// Fig4 reproduces Figure 4: the evolution of average recall over eager
// cycles for the uniform storage scenarios, with alpha=0.5. The paper's
// observations to reproduce: all scenarios reach recall 1 within ~10
// cycles, larger c starts higher and finishes sooner, and the first cycle
// brings the largest improvement.
func Fig4(cfg Config) []*metrics.Table {
	w := NewWorld(cfg)
	cycles := max(cfg.Cycles/2, 10)
	cValues := cfg.UniformCValues()
	curves := make([][]float64, len(cValues))
	for ci, c := range cValues {
		curves[ci] = w.RecallCurve(w.SeededEngine(cfg.CoreConfig(c)), cycles)
	}
	return []*metrics.Table{curveTable("Figure 4 — average recall vs cycles, c sweep (alpha=0.5)",
		labels("c=%d", cValues), steps(cycles, 1), curves, 3)}
}
