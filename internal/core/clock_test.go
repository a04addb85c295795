package core

import (
	"testing"
	"time"

	"p3q/internal/topk"
	"p3q/internal/trace"
)

func TestClockFiresCyclesAtPeriods(t *testing.T) {
	w := newWorld(t, 60, smallCfg(), 70)
	e := New(w.ds, w.cfg)
	e.SeedIdealNetworks(w.ideal)
	c := NewClock(e)

	c.Advance(4 * time.Second)
	if e.LazyCycles() != 0 || e.EagerCycles() != 0 {
		t.Fatalf("cycles fired before their periods: lazy=%d eager=%d",
			e.LazyCycles(), e.EagerCycles())
	}
	// Queries are needed for eager cycles to do work, but the schedule
	// advances regardless; lazy fires unconditionally.
	c.Advance(56 * time.Second) // now at 60s
	if e.LazyCycles() != 1 {
		t.Fatalf("lazy cycles at 60s = %d, want 1", e.LazyCycles())
	}
	c.Advance(2 * time.Minute) // now at 180s
	if e.LazyCycles() != 3 {
		t.Fatalf("lazy cycles at 180s = %d, want 3", e.LazyCycles())
	}
	if c.Now() != 180*time.Second {
		t.Fatalf("Now = %v, want 180s", c.Now())
	}
}

func TestClockEagerOnlyWithActiveQueries(t *testing.T) {
	w := newWorld(t, 60, smallCfg(), 71)
	e := New(w.ds, w.cfg)
	e.SeedIdealNetworks(w.ideal)
	c := NewClock(e)
	c.Advance(30 * time.Second)
	if e.EagerCycles() != 0 {
		t.Fatalf("eager cycles fired with no queries: %d", e.EagerCycles())
	}
	q, _ := trace.QueryFor(w.ds, 2, 1)
	qr := e.IssueQuery(q)
	c.Advance(30 * time.Second)
	if e.EagerCycles() == 0 && !qr.Done() {
		t.Fatal("eager mode never fired for an active query")
	}
}

func TestClockAnswersQueryWithinPaperBudget(t *testing.T) {
	// §3.5: queries answered accurately within 10 eager cycles = 50 seconds
	// at the 5-second eager period.
	w := newWorld(t, 120, smallCfg(), 72)
	e := New(w.ds, w.cfg)
	e.SeedIdealNetworks(w.ideal)
	c := NewClock(e)
	q, _ := trace.QueryFor(w.ds, 8, 3)
	qr := e.IssueQuery(q)
	for c.Now() < 5*time.Minute && !qr.Done() {
		c.Advance(e.cfg.EagerPeriod)
	}
	elapsed := c.Now()
	if !qr.Done() {
		t.Fatal("query did not complete in 5 simulated minutes")
	}
	if elapsed > 90*time.Second {
		t.Fatalf("query took %v of simulated time, paper budget is ~50s", elapsed)
	}
	want := exactReference(e, q, w.cfg.K)
	if r := topk.Recall(qr.Results(), want); r != 1 {
		t.Fatalf("recall at completion = %f", r)
	}
}

// TestClockTakesPeriodsFromConfig: a 30s lazy period in the engine's
// Config gives two lazy cycles per simulated minute.
func TestClockTakesPeriodsFromConfig(t *testing.T) {
	w := newWorld(t, 30, smallCfg(), 73)
	cfg := w.cfg
	cfg.LazyPeriod = 30 * time.Second
	e := New(w.ds, cfg)
	c := NewClock(e)
	c.Advance(time.Minute)
	if e.LazyCycles() != 2 {
		t.Fatalf("lazy cycles in one minute at a 30s period = %d, want 2", e.LazyCycles())
	}
}

func TestClockInterleavingMatchesPaperRatio(t *testing.T) {
	// 12 eager opportunities per lazy cycle at the paper's periods.
	w := newWorld(t, 60, smallCfg(), 74)
	e := New(w.ds, w.cfg)
	e.SeedIdealNetworks(w.ideal)
	// A stream of queries keeps the eager mode busy for the whole window.
	for _, q := range trace.GenerateQueries(w.ds, 7)[:30] {
		e.IssueQuery(q)
	}
	c := NewClock(e)
	c.Advance(time.Minute)
	if e.LazyCycles() != 1 {
		t.Fatalf("lazy cycles = %d, want 1", e.LazyCycles())
	}
	if e.EagerCycles() == 0 || e.EagerCycles() > 12 {
		t.Fatalf("eager cycles in one minute = %d, want 1..12", e.EagerCycles())
	}
}
