package experiments

import (
	"p3q/internal/metrics"
	"p3q/internal/randx"
)

// table1Paper holds the percentages reported by Table 1 of the paper.
var table1Paper = map[float64][]float64{
	1: {36.79, 36.79, 18.39, 6.13, 1.53, 0.31, 0.06},
	4: {2.06, 8.25, 16.49, 21.99, 21.99, 17.59, 11.73},
}

// Table1 reproduces Table 1: the distribution of per-user storage
// capacities c under the two heterogeneous Poisson scenarios, both
// analytically (the exact pmf the paper tabulates) and empirically (the
// sampled assignment the heterogeneous experiments actually use).
func Table1(cfg Config) []*metrics.Table {
	t := metrics.NewTable(
		"Table 1 — distribution of c (percent of users)",
		"c", "paper l=1", "ours l=1", "sampled l=1", "paper l=4", "ours l=4", "sampled l=4")

	sample := func(lambda float64) []float64 {
		rng := randx.NewSource(cfg.Seed).Split(uint64(lambda * 1000))
		counts := make(map[int]int)
		n := cfg.Users
		if n < 10000 {
			n = 10000 // sample enough to resolve the 0.06% tail
		}
		for i := 0; i < n; i++ {
			counts[rng.DrawStorageClass(lambda)]++
		}
		out := make([]float64, len(randx.StorageClasses))
		for i, c := range randx.StorageClasses {
			out[i] = 100 * float64(counts[c]) / float64(n)
		}
		return out
	}

	pmf1 := randx.StorageClassPMF(1)
	pmf4 := randx.StorageClassPMF(4)
	s1 := sample(1)
	s4 := sample(4)
	for i, c := range randx.StorageClasses {
		t.Add(
			metrics.I(c),
			metrics.F(table1Paper[1][i], 2), metrics.F(pmf1[i]*100, 2), metrics.F(s1[i], 2),
			metrics.F(table1Paper[4][i], 2), metrics.F(pmf4[i]*100, 2), metrics.F(s4[i], 2),
		)
	}
	return []*metrics.Table{t}
}
