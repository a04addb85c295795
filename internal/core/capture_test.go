package core

import (
	"slices"
	"testing"

	"p3q/internal/trace"
)

// TestCapturedRunMatchesPlainRun pins the capture contract: a run stepped
// through the captured cycle variants is byte-for-byte identical to the
// same run stepped through the plain ones. The daemon's replicas step
// with capture on, so any capture-path side effect would silently diverge
// the cluster from the reference engine.
func TestCapturedRunMatchesPlainRun(t *testing.T) {
	ds := trace.Generate(trace.DefaultGenParams(60))
	cfg := DefaultConfig()
	cfg.Seed = 11

	plain := New(ds, cfg)
	plain.Bootstrap()
	captured := New(ds, cfg)
	captured.Bootstrap()

	for i := 0; i < 8; i++ {
		plain.LazyCycle()
		captured.LazyCycleCaptured()
	}
	queries := trace.GenerateQueries(ds, 3)[:10]
	for _, q := range queries {
		plain.IssueQuery(q)
		captured.IssueQuery(q)
	}
	for i := 0; i < 40 && !plain.AllQueriesDone(); i++ {
		plain.EagerCycle()
		captured.EagerCycleCaptured()
	}
	if !captured.AllQueriesDone() {
		t.Fatal("captured engine did not settle with the plain one")
	}
	if a, b := engineFingerprint(plain), engineFingerprint(captured); a != b {
		t.Errorf("captured run diverged from plain run:\nplain:\n%s\ncaptured:\n%s", a, b)
	}
}

// TestEagerSplitHonoursAlpha holds the remaining-list split of Algorithm 3
// (lines 19-20) to Config.Alpha over a seeded query burst: of the n branch
// members a destination could not resolve it keeps ⌊(1-α)·n⌋ and returns
// the rest — nothing at α = 0, everything at α = 1, and ⌊n/2⌋ kept at 0.5.
// The captured Returned list is what a daemon ships, so it must be the
// planned one.
func TestEagerSplitHonoursAlpha(t *testing.T) {
	ds := trace.Generate(trace.DefaultGenParams(60))
	queries := trace.GenerateQueries(ds, 5)[:12]
	for _, tc := range []struct {
		alpha float64
		keep  func(n int) int
	}{
		{0, func(n int) int { return n }},
		{0.5, func(n int) int { return n / 2 }},
		{1, func(int) int { return 0 }},
	} {
		cfg := DefaultConfig()
		cfg.Seed = 13
		cfg.Alpha = tc.alpha
		e := New(ds, cfg)
		e.Bootstrap()
		e.RunLazy(10)
		for _, q := range queries {
			e.IssueQuery(q)
		}
		splits := 0
		for cycle := 0; cycle < 40 && !e.AllQueriesDone(); cycle++ {
			cp := e.EagerCycleCaptured()
			for i := range cp.Pairs {
				p := &e.scratch.eplans[i]
				if !p.ok {
					continue
				}
				n := len(p.keep) + len(p.returned)
				if len(p.keep) != tc.keep(n) {
					t.Fatalf("α=%v cycle %d: destination %d kept %d of %d unresolved members, want %d",
						tc.alpha, cycle, p.dest, len(p.keep), n, tc.keep(n))
				}
				if !slices.Equal(cp.Pairs[i].Returned, p.returned) {
					t.Fatalf("α=%v cycle %d: captured returned %v, planned %v", tc.alpha, cycle, cp.Pairs[i].Returned, p.returned)
				}
				if n >= 2 {
					splits++
				}
			}
		}
		if splits == 0 {
			t.Fatalf("α=%v: no gossip left two or more members unresolved; the burst cannot tell a split apart", tc.alpha)
		}
	}
}
