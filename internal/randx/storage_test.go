package randx

import (
	"math"
	"testing"
)

// Table 1 of the paper, in percent, parallel to StorageClasses.
var (
	table1Lambda1 = []float64{36.79, 36.79, 18.39, 6.13, 1.53, 0.31, 0.06}
	table1Lambda4 = []float64{2.06, 8.25, 16.49, 21.99, 21.99, 17.59, 11.73}
)

func TestStorageClassPMFMatchesTable1Lambda1(t *testing.T) {
	pmf := StorageClassPMF(1)
	for i, want := range table1Lambda1 {
		got := pmf[i] * 100
		if math.Abs(got-want) > 0.01 {
			t.Fatalf("lambda=1 class c=%d: pmf %.4f%%, Table 1 says %.2f%%",
				StorageClasses[i], got, want)
		}
	}
}

func TestStorageClassPMFMatchesTable1Lambda4(t *testing.T) {
	pmf := StorageClassPMF(4)
	for i, want := range table1Lambda4 {
		got := pmf[i] * 100
		// The paper's row carries ~0.02pp of rounding drift relative to
		// the exact renormalized Poisson(4) pmf; allow 0.05pp.
		if math.Abs(got-want) > 0.05 {
			t.Fatalf("lambda=4 class c=%d: pmf %.4f%%, Table 1 says %.2f%%",
				StorageClasses[i], got, want)
		}
	}
}

// TestStorageClassPMFSumsToOne covers both tail conventions: 0.5 and 1
// lump, 2 and 4 truncate.
func TestStorageClassPMFSumsToOne(t *testing.T) {
	for _, lambda := range []float64{0.5, 1, 2, 4} {
		sum := 0.0
		for _, p := range StorageClassPMF(lambda) {
			sum += p
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("pmf(lambda=%g) sums to %f", lambda, sum)
		}
	}
}

func TestLumpsTail(t *testing.T) {
	if !lumpsTail(1) {
		t.Fatal("lambda=1 should lump the tail (Table 1 convention)")
	}
	if lumpsTail(4) {
		t.Fatal("lambda=4 should truncate (Table 1 convention)")
	}
}

func TestDrawStorageClassEmpirical(t *testing.T) {
	s := NewSource(20)
	const n = 200000
	counts := make(map[int]int)
	for i := 0; i < n; i++ {
		counts[s.DrawStorageClass(4)]++
	}
	pmf := StorageClassPMF(4)
	for i, c := range StorageClasses {
		got := float64(counts[c]) / n
		if math.Abs(got-pmf[i]) > 0.005 {
			t.Fatalf("empirical P(c=%d) = %.4f, analytic %.4f", c, got, pmf[i])
		}
	}
}

func TestDrawStorageClassOnlyValidClasses(t *testing.T) {
	s := NewSource(21)
	valid := make(map[int]bool)
	for _, c := range StorageClasses {
		valid[c] = true
	}
	for i := 0; i < 10000; i++ {
		if c := s.DrawStorageClass(1); !valid[c] {
			t.Fatalf("drew invalid class %d", c)
		}
	}
}

func TestAssignStorageLength(t *testing.T) {
	s := NewSource(22)
	cs := s.AssignStorage(500, 1)
	if len(cs) != 500 {
		t.Fatalf("AssignStorage returned %d values, want 500", len(cs))
	}
}

func TestLambda1MostlySmallStorage(t *testing.T) {
	// §3.1.2: "In the lambda = 1 scenario, more than 73% users only store
	// 10 or 20 profiles."
	s := NewSource(23)
	cs := s.AssignStorage(100000, 1)
	small := 0
	for _, c := range cs {
		if c == 10 || c == 20 {
			small++
		}
	}
	if frac := float64(small) / float64(len(cs)); frac < 0.72 {
		t.Fatalf("fraction with c in {10,20} = %.3f, paper says > 0.73", frac)
	}
}
