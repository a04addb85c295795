package trace

import (
	"math"
	"testing"
)

// Calibration tests: the generator must hit the marginals it is asked for,
// since the substitution argument (package doc of trace.go) rests on them.

func TestGeneratorHitsMeanItemsTarget(t *testing.T) {
	for _, target := range []float64{20, 60, 120} {
		p := DefaultGenParams(400)
		p.MeanItems = target
		p.Seed = uint64(target)
		s := ComputeStats(Generate(p))
		if math.Abs(s.MeanItemsPerUser-target) > target*0.25 {
			t.Fatalf("target %.0f items/user, generated %.1f (>25%% off)",
				target, s.MeanItemsPerUser)
		}
	}
}

func TestGeneratorActionsPerItemUser(t *testing.T) {
	// The paper's crawl has ~3.8 tags per (user, item); meanExtraTags is
	// calibrated for that.
	p := DefaultGenParams(300)
	p.Seed = 2
	s := ComputeStats(Generate(p))
	if s.MeanActionsPerItemUser < 2.5 || s.MeanActionsPerItemUser > 4.5 {
		t.Fatalf("tags per (user,item) = %.2f, want ~3.8 (paper)", s.MeanActionsPerItemUser)
	}
}

func TestGeneratorProfileSizeSkew(t *testing.T) {
	// Log-normal sizes: the max profile should far exceed the mean (the
	// paper: mean 249 items but >99% under 2000 — a long right tail).
	p := DefaultGenParams(500)
	p.Seed = 3
	s := ComputeStats(Generate(p))
	if float64(s.MaxProfileLen) < 3*s.MeanActionsPerUser {
		t.Fatalf("max profile %d vs mean %.0f: right tail too light",
			s.MaxProfileLen, s.MeanActionsPerUser)
	}
	if float64(s.P99ProfileItems) < s.MeanItemsPerUser {
		t.Fatalf("p99 items %d below the mean %.1f", s.P99ProfileItems, s.MeanItemsPerUser)
	}
}

func TestGeneratorHeadHasPopularItems(t *testing.T) {
	// The dataset reduction criterion of §3.1.1 keeps items tagged by >= 10
	// users; a faithful trace must have a meaningful head of such items.
	p := DefaultGenParams(400)
	p.Seed = 4
	s := ComputeStats(Generate(p))
	if s.ItemsUsedBy10Plus < 50 {
		t.Fatalf("only %d items tagged by >= 10 users; head too thin", s.ItemsUsedBy10Plus)
	}
}

func TestGeneratorStableUnderUserCount(t *testing.T) {
	// Normalized marginals should be roughly invariant as the population
	// grows (reduced-scale runs stand in for the paper's 10,000 users, §3.1.1).
	small := ComputeStats(Generate(GenParams{Users: 200, MeanItems: 30, Seed: 6}))
	big := ComputeStats(Generate(GenParams{Users: 800, MeanItems: 30, Seed: 6}))
	ratio := big.MeanActionsPerUser / small.MeanActionsPerUser
	if ratio < 0.7 || ratio > 1.4 {
		t.Fatalf("actions/user drifted with population: %.1f vs %.1f",
			big.MeanActionsPerUser, small.MeanActionsPerUser)
	}
}
