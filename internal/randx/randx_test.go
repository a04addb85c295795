package randx

import (
	"math"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a := NewSource(42)
	b := NewSource(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed produced different streams")
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := NewSource(1)
	b := NewSource(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds collided %d/100 times", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	root := NewSource(7)
	c1 := root.Split(1)
	c2 := root.Split(2)
	c1again := root.Split(1)
	if c1.Uint64() != c1again.Uint64() {
		t.Fatal("Split is not a pure function of (state, label)")
	}
	// Advance c1; root and c2 must be unaffected.
	before := NewSource(7).Split(2).Uint64()
	for i := 0; i < 10; i++ {
		c1.Uint64()
	}
	if c2.Uint64() != before {
		t.Fatal("advancing one child affected a sibling")
	}
}

func TestSplitDoesNotAdvanceParent(t *testing.T) {
	a := NewSource(9)
	b := NewSource(9)
	a.Split(123)
	if a.Uint64() != b.Uint64() {
		t.Fatal("Split advanced the parent state")
	}
}

func TestIntnRange(t *testing.T) {
	s := NewSource(1)
	for i := 0; i < 1000; i++ {
		v := s.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn(10) = %d out of range", v)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewSource(1).Intn(0)
}

func TestFloat64Range(t *testing.T) {
	s := NewSource(2)
	for i := 0; i < 1000; i++ {
		v := s.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 = %f out of [0,1)", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	s := NewSource(3)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		sum += s.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean = %f, want ~0.5", mean)
	}
}

func TestPermIsPermutation(t *testing.T) {
	s := NewSource(4)
	p := s.PermInto(nil, 50)
	seen := make([]bool, 50)
	for _, v := range p {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("PermInto not a permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestSampleDistinct(t *testing.T) {
	s := NewSource(5)
	for trial := 0; trial < 100; trial++ {
		got := s.Sample(20, 5)
		if len(got) != 5 {
			t.Fatalf("Sample(20,5) returned %d values", len(got))
		}
		seen := make(map[int]bool)
		for _, v := range got {
			if v < 0 || v >= 20 || seen[v] {
				t.Fatalf("Sample returned invalid/duplicate value: %v", got)
			}
			seen[v] = true
		}
	}
}

func TestSampleAll(t *testing.T) {
	s := NewSource(6)
	got := s.Sample(5, 10)
	if len(got) != 5 {
		t.Fatalf("Sample(5,10) returned %d values, want 5", len(got))
	}
}

func TestSampleUniformCoverage(t *testing.T) {
	s := NewSource(77)
	counts := make([]int, 10)
	const trials = 20000
	for i := 0; i < trials; i++ {
		for _, v := range s.Sample(10, 3) {
			counts[v]++
		}
	}
	// Each element should be picked with probability 3/10.
	want := float64(trials) * 0.3
	for v, c := range counts {
		if math.Abs(float64(c)-want) > want*0.1 {
			t.Fatalf("element %d sampled %d times, want ~%.0f", v, c, want)
		}
	}
}

func TestPoissonMeanAndVariance(t *testing.T) {
	s := NewSource(8)
	for _, lambda := range []float64{1, 4} {
		const n = 50000
		sum, sumSq := 0.0, 0.0
		for i := 0; i < n; i++ {
			v := float64(s.Poisson(lambda))
			sum += v
			sumSq += v * v
		}
		mean := sum / n
		variance := sumSq/n - mean*mean
		if math.Abs(mean-lambda) > 0.05*lambda+0.02 {
			t.Fatalf("Poisson(%g) mean = %f", lambda, mean)
		}
		if math.Abs(variance-lambda) > 0.1*lambda+0.05 {
			t.Fatalf("Poisson(%g) variance = %f", lambda, variance)
		}
	}
}

func TestPoissonNonPositiveLambda(t *testing.T) {
	s := NewSource(9)
	if s.Poisson(0) != 0 || s.Poisson(-1) != 0 {
		t.Fatal("Poisson with lambda <= 0 should return 0")
	}
}

func TestLogNormalPositive(t *testing.T) {
	s := NewSource(10)
	for i := 0; i < 1000; i++ {
		if s.LogNormal(3, 1) <= 0 {
			t.Fatal("LogNormal returned non-positive value")
		}
	}
}

func TestLogNormalMedian(t *testing.T) {
	s := NewSource(11)
	const n = 20000
	below := 0
	median := math.Exp(3.0)
	for i := 0; i < n; i++ {
		if s.LogNormal(3, 0.8) < median {
			below++
		}
	}
	frac := float64(below) / n
	if math.Abs(frac-0.5) > 0.02 {
		t.Fatalf("fraction below median = %f, want ~0.5", frac)
	}
}

func TestZipfSkew(t *testing.T) {
	s := NewSource(12)
	z := NewZipf(s, 1.2, 1000)
	counts := make(map[int]int)
	const n = 20000
	for i := 0; i < n; i++ {
		v := z.Draw()
		if v < 0 || v >= 1000 {
			t.Fatalf("Zipf draw %d out of range", v)
		}
		counts[v]++
	}
	if counts[0] <= counts[10] {
		t.Fatalf("Zipf not skewed: count[0]=%d count[10]=%d", counts[0], counts[10])
	}
	if counts[0] < n/20 {
		t.Fatalf("rank-0 mass too small for a long-tail distribution: %d", counts[0])
	}
}

func TestZipfClampedExponent(t *testing.T) {
	s := NewSource(13)
	z := NewZipf(s, 0.5, 10) // clamped internally
	for i := 0; i < 100; i++ {
		if v := z.Draw(); v < 0 || v >= 10 {
			t.Fatalf("clamped Zipf draw %d out of range", v)
		}
	}
}

func TestWeightedChoice(t *testing.T) {
	s := NewSource(14)
	weights := []float64{0, 1, 3}
	counts := make([]int, 3)
	const n = 30000
	for i := 0; i < n; i++ {
		counts[s.WeightedChoice(weights)]++
	}
	if counts[0] != 0 {
		t.Fatalf("zero-weight element chosen %d times", counts[0])
	}
	ratio := float64(counts[2]) / float64(counts[1])
	if math.Abs(ratio-3) > 0.3 {
		t.Fatalf("weight ratio = %f, want ~3", ratio)
	}
}

func TestWeightedChoiceZeroTotalUniform(t *testing.T) {
	s := NewSource(15)
	counts := make([]int, 4)
	for i := 0; i < 4000; i++ {
		counts[s.WeightedChoice([]float64{0, 0, 0, 0})]++
	}
	for i, c := range counts {
		if c < 700 {
			t.Fatalf("uniform fallback skewed: counts[%d]=%d", i, c)
		}
	}
}

func TestWeightedChoicePanicsEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("WeightedChoice(empty) did not panic")
		}
	}()
	NewSource(1).WeightedChoice(nil)
}

func TestNormFloat64Moments(t *testing.T) {
	s := NewSource(16)
	const n = 100000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := s.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean = %f, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Fatalf("normal variance = %f, want ~1", variance)
	}
}

func TestRandAdapter(t *testing.T) {
	s := NewSource(17)
	r := s.Rand()
	for i := 0; i < 100; i++ {
		if v := r.Intn(5); v < 0 || v >= 5 {
			t.Fatalf("adapter Intn out of range: %d", v)
		}
	}
}
