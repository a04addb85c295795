package analysis

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRAlphaBoundaries(t *testing.T) {
	// α = 0 and α = 1: the querier (or a single chain) processes the list
	// X profiles per cycle: L/X cycles.
	if got := RAlpha(0, 100, 10); got != 10 {
		t.Fatalf("R(0) = %f, want 10", got)
	}
	if got := RAlpha(1, 100, 10); got != 10 {
		t.Fatalf("R(1) = %f, want 10", got)
	}
}

func TestRAlphaDegenerate(t *testing.T) {
	if got := RAlpha(0.5, 0, 10); got != 0 {
		t.Fatalf("R with empty list = %f, want 0", got)
	}
	if got := RAlpha(0.5, 5, 10); got != 1 {
		t.Fatalf("R with L <= X = %f, want 1", got)
	}
	if got := RAlpha(0.5, 10, 0); !math.IsInf(got, 1) {
		t.Fatalf("R with X = 0 = %f, want +Inf", got)
	}
}

func TestRAlphaSymmetry(t *testing.T) {
	// R(α) = R(1-α) by the construction of the two branches.
	for _, a := range []float64{0.1, 0.2, 0.3, 0.4} {
		r1 := RAlpha(a, 1000, 10)
		r2 := RAlpha(1-a, 1000, 10)
		if math.Abs(r1-r2) > 1e-9 {
			t.Fatalf("R(%g) = %f != R(%g) = %f", a, r1, 1-a, r2)
		}
	}
}

func TestRAlphaMonotoneAboveHalf(t *testing.T) {
	// Theorem 2.2: R(α) increases on [0.5, 1).
	prev := RAlpha(0.5, 1000, 10)
	for _, a := range []float64{0.6, 0.7, 0.8, 0.9, 0.99} {
		cur := RAlpha(a, 1000, 10)
		if cur <= prev {
			t.Fatalf("R not increasing: R(%g)=%f <= previous %f", a, cur, prev)
		}
		prev = cur
	}
}

func TestRAlphaMonotoneBelowHalf(t *testing.T) {
	// Theorem 2.2: R(α) decreases on (0, 0.5).
	prev := RAlpha(0.01, 1000, 10)
	for _, a := range []float64{0.1, 0.2, 0.3, 0.4, 0.5} {
		cur := RAlpha(a, 1000, 10)
		if cur >= prev {
			t.Fatalf("R not decreasing: R(%g)=%f >= previous %f", a, cur, prev)
		}
		prev = cur
	}
}

func TestRAlphaMinimumAtHalf(t *testing.T) {
	// Theorem 2.2: α = 0.5 achieves the minimum.
	min := RAlpha(OptimalAlpha, 990, 10)
	for _, a := range []float64{0, 0.1, 0.3, 0.45, 0.55, 0.7, 0.9, 1} {
		if r := RAlpha(a, 990, 10); r < min-1e-9 {
			t.Fatalf("R(%g) = %f below R(0.5) = %f", a, r, min)
		}
	}
}

func TestRAlphaMatchesRecurrence(t *testing.T) {
	// The closed form must agree with the simulated recurrence: after
	// ceil(R) cycles the longest remaining list is empty; after floor(R)-1
	// it is not.
	for _, tc := range []struct{ alpha, l, x float64 }{
		{0.5, 1000, 10}, {0.7, 500, 5}, {0.3, 800, 20}, {0.9, 300, 3}, {0.5, 990, 1},
	} {
		r := RAlpha(tc.alpha, tc.l, tc.x)
		up := int(math.Ceil(r + 1e-9))
		if rem := RemainingAfter(tc.alpha, tc.l, tc.x, up); rem > 1e-6 {
			t.Fatalf("alpha=%g L=%g X=%g: after ceil(R)=%d cycles remaining=%f, want 0",
				tc.alpha, tc.l, tc.x, up, rem)
		}
		down := int(math.Floor(r - 1e-9))
		if down >= 1 {
			if rem := RemainingAfter(tc.alpha, tc.l, tc.x, down-1); rem <= 0 {
				t.Fatalf("alpha=%g L=%g X=%g: already empty after %d cycles but R=%f",
					tc.alpha, tc.l, tc.x, down-1, r)
			}
		}
	}
}

func TestRAlphaLogApproximation(t *testing.T) {
	// §1: "the query processing time in gossip cycles can be approximated
	// with O(log2 L)". At alpha=0.5, X=1 the closed form stays within a
	// small constant of log2(L).
	for _, l := range []float64{64, 256, 1024, 4096} {
		r := RAlpha(0.5, l, 1)
		approx := math.Log2(l)
		if math.Abs(r-approx) > 3 {
			t.Fatalf("L=%g: R=%f vs log2=%f differ by more than 3", l, r, approx)
		}
	}
}

func TestBounds(t *testing.T) {
	if UsersBound(3) != 8 {
		t.Fatalf("UsersBound(3) = %f", UsersBound(3))
	}
	if PartialResultsBound(3) != 7 {
		t.Fatalf("PartialResultsBound(3) = %f", PartialResultsBound(3))
	}
	if MessagesBound(3) != 14 {
		t.Fatalf("MessagesBound(3) = %f", MessagesBound(3))
	}
}

func TestRemainingAfterMonotone(t *testing.T) {
	prev := 1000.0
	for r := 1; r < 20; r++ {
		cur := RemainingAfter(0.5, 1000, 10, r)
		if cur > prev {
			t.Fatalf("remaining list grew at cycle %d: %f > %f", r, cur, prev)
		}
		prev = cur
	}
	if prev != 0 {
		t.Fatalf("remaining list never emptied: %f", prev)
	}
}

func TestRAlphaOptimalityProperty(t *testing.T) {
	// Theorem 2.2 as a property: for any L > X > 0 and any alpha, R(alpha)
	// is at least R(0.5).
	check := func(lRaw, xRaw uint16, aRaw uint8) bool {
		x := float64(xRaw%50) + 1
		l := x + float64(lRaw%5000) + 1
		alpha := float64(aRaw%101) / 100
		return RAlpha(alpha, l, x) >= RAlpha(OptimalAlpha, l, x)-1e-9
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestRAlphaSymmetryProperty(t *testing.T) {
	check := func(lRaw, xRaw uint16, aRaw uint8) bool {
		x := float64(xRaw%50) + 1
		l := x + float64(lRaw%5000) + 1
		alpha := float64(aRaw%49+1) / 100 // (0, 0.5)
		return math.Abs(RAlpha(alpha, l, x)-RAlpha(1-alpha, l, x)) < 1e-9
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestRAlphaAtLeastOneCycleProperty(t *testing.T) {
	check := func(lRaw, xRaw uint16, aRaw uint8) bool {
		x := float64(xRaw%100) + 1
		l := float64(lRaw) + 1
		alpha := float64(aRaw%101) / 100
		r := RAlpha(alpha, l, x)
		return r >= 1 || l <= 0
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// RemainingAfter simulates the recurrence of Theorem 2.1's proof directly:
// the length of the longest remaining list after r cycles. It is the
// reference the closed form is tested against.
//
//	L(r) = β·(L(r-1) - X), with β = max(α, 1-α)
func RemainingAfter(alpha, l, x float64, r int) float64 {
	beta := alpha
	if 1-alpha > beta {
		beta = 1 - alpha
	}
	for i := 0; i < r && l > 0; i++ {
		l = beta * (l - x)
		if l < 0 {
			l = 0
		}
	}
	return l
}
