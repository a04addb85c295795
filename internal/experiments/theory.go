package experiments

import (
	"fmt"
	"math"

	"p3q/internal/analysis"
	"p3q/internal/core"
	"p3q/internal/metrics"
)

// Theory reproduces the analytical results of §2.4 and checks them against
// the implementation:
//
//   - Theorems 2.1/2.2: R(alpha) for a sweep of alpha at the world's
//     average remaining-list length L, showing the minimum at alpha = 0.5
//     and the symmetry around it;
//   - Theorems 2.3/2.4: the bounds on users involved, partial results and
//     gossip messages;
//   - an empirical column: the measured completion cycles of the protocol
//     for each alpha (uniform c = 10), which must follow the same ordering
//     as the closed form.
func Theory(cfg Config) []*metrics.Table {
	w := NewWorld(cfg)

	measured := make([]float64, len(fig3Alphas))
	avgL := 0.0
	var optimal []*core.QueryRun // the alpha = 0.5 runs, for Theorems 2.3/2.4
	for ai, alpha := range fig3Alphas {
		cc := cfg.CoreConfig(10)
		cc.Alpha = alpha
		e := w.SeededEngine(cc)
		runs, _ := w.issue(e)
		e.RunEager(cfg.Cycles * 10)
		var lengths, cyclesDone []float64
		for _, qr := range runs {
			lengths = append(lengths, float64(qr.ProfilesNeeded()-1))
			cyclesDone = append(cyclesDone, float64(qr.Cycles()))
		}
		measured[ai] = metrics.Mean(cyclesDone)
		if ai == 0 {
			avgL = metrics.Mean(lengths)
		}
		if alpha == analysis.OptimalAlpha {
			optimal = runs
		}
	}

	t1 := metrics.NewTable(
		fmt.Sprintf("Theorems 2.1-2.2 — R(alpha) (analytic, L=%.0f) vs measured completion cycles", avgL),
		"alpha", "R(alpha) X=1", "R(alpha) X=3", "R(alpha) X=10", "measured cycles")
	for ai, alpha := range fig3Alphas {
		t1.Add(fmt.Sprintf("%.1f", alpha),
			metrics.F(analysis.RAlpha(alpha, avgL, 1), 1),
			metrics.F(analysis.RAlpha(alpha, avgL, 3), 1),
			metrics.F(analysis.RAlpha(alpha, avgL, 10), 1),
			metrics.F(measured[ai], 1))
	}

	// Theorems 2.3/2.4 at alpha = 0.5 with a conservative X = 1.
	r := analysis.RAlpha(analysis.OptimalAlpha, avgL, 1)
	var users, partials []float64
	for _, qr := range optimal {
		users = append(users, float64(qr.UsersReached()))
		partials = append(partials, float64(qr.PartialResultMessages()))
	}
	t2 := metrics.NewTable("Theorems 2.3-2.4 — bounds at alpha=0.5 (bounds capped at population size)",
		"quantity", "bound", "measured mean", "measured max")
	t2.Add("users involved (<= 2^R)",
		metrics.F(math.Min(analysis.UsersBound(r), float64(cfg.Users)), 0),
		metrics.F(metrics.Mean(users), 1), metrics.F(percentiles(users, 1)[0], 0))
	t2.Add("partial results (<= 2^R - 1)",
		metrics.F(math.Min(analysis.PartialResultsBound(r), float64(cfg.Users)), 0),
		metrics.F(metrics.Mean(partials), 1), metrics.F(percentiles(partials, 1)[0], 0))
	t2.Add("remaining-list messages (<= 2(2^R - 1))",
		metrics.F(math.Min(analysis.MessagesBound(r), 2*float64(cfg.Users)), 0),
		"", "")
	return []*metrics.Table{t1, t2}
}
