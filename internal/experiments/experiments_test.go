package experiments

import (
	"bytes"
	"slices"
	"strconv"
	"testing"
)

// tinyCfg keeps the smoke tests fast while preserving the shapes the
// assertions check.
func tinyCfg() Config {
	return Config{
		Users:     150,
		S:         20,
		K:         10,
		MeanItems: 20,
		Queries:   40,
		Cycles:    10,
		Seed:      7,
	}
}

// cell parses a table cell as float.
func cell(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cell %q is not numeric: %v", s, err)
	}
	return v
}

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"table1", "fig2", "fig3", "fig4", "fig5", "fig6", "table2",
		"fig7a", "fig7b", "fig8", "fig9", "fig10",
		"fig11a", "fig11b", "fig11c", "theory", "bandwidth",
		"timeline", "latency", "localonly", "expansion", "ablations",
	}
	reg := Registry()
	if len(reg) != len(want) {
		t.Fatalf("registry has %d entries, want %d", len(reg), len(want))
	}
	for i, name := range want {
		if reg[i].Name != name {
			t.Fatalf("registry[%d] = %s, want %s", i, reg[i].Name, name)
		}
		if reg[i].Paper == "" || reg[i].Run == nil {
			t.Fatalf("registry entry %s incomplete", name)
		}
	}
	if _, ok := Lookup("fig3"); !ok {
		t.Fatal("Lookup(fig3) failed")
	}
	if _, ok := Lookup("nope"); ok {
		t.Fatal("Lookup(nope) succeeded")
	}
}

func TestTable1Shape(t *testing.T) {
	tables := Table1(tinyCfg())
	if len(tables) != 1 {
		t.Fatalf("got %d tables", len(tables))
	}
	tb := tables[0]
	if len(tb.Rows) != 7 {
		t.Fatalf("Table 1 has %d rows, want 7 storage classes", len(tb.Rows))
	}
	for _, row := range tb.Rows {
		paper := cell(t, row[1])
		ours := cell(t, row[2])
		sampled := cell(t, row[3])
		if diff := paper - ours; diff > 0.05 || diff < -0.05 {
			t.Fatalf("lambda=1 analytic diverges from paper at c=%s: %f vs %f", row[0], ours, paper)
		}
		if diff := ours - sampled; diff > 1.5 || diff < -1.5 {
			t.Fatalf("lambda=1 sample diverges at c=%s: %f vs %f", row[0], sampled, ours)
		}
	}
}

func TestFig2ConvergenceShape(t *testing.T) {
	cfg := tinyCfg()
	cfg.Cycles = 8 // Fig2 multiplies by 5 internally
	tb := Fig2(cfg)[0]
	if len(tb.Rows) < 5 {
		t.Fatalf("too few sampled cycles: %d", len(tb.Rows))
	}
	nCols := len(tb.Header) - 1
	first := tb.Rows[0]
	last := tb.Rows[len(tb.Rows)-1]
	for c := 1; c <= nCols; c++ {
		f, l := cell(t, first[c]), cell(t, last[c])
		if l < f {
			t.Fatalf("column %s: success ratio fell from %f to %f", tb.Header[c], f, l)
		}
		if l < 0.5 {
			t.Fatalf("column %s: final success ratio %f too low", tb.Header[c], l)
		}
	}
	// Paper: the more profiles stored, the faster the convergence — compare
	// an early sample between the smallest and largest c.
	if nCols >= 2 {
		mid := tb.Rows[2]
		small, large := cell(t, mid[1]), cell(t, mid[nCols])
		if small > large+0.15 {
			t.Fatalf("early convergence: c=%s (%f) should not trail far behind c=%s (%f)",
				tb.Header[nCols], large, tb.Header[1], small)
		}
	}
}

func TestFig3AlphaShape(t *testing.T) {
	tb := Fig3(tinyCfg())[0]
	last := tb.Rows[len(tb.Rows)-1]
	first := tb.Rows[0]
	// All alphas share the identical local starting point.
	base := cell(t, first[1])
	for c := 2; c < len(first); c++ {
		if v := cell(t, first[c]); v != base {
			t.Fatalf("cycle-0 recall differs across alphas: %f vs %f", v, base)
		}
	}
	// alpha=0.5 (column 4) must converge at least as fast as the extremes
	// (columns 1 and 7): compare an early-to-mid cycle.
	midRow := tb.Rows[len(tb.Rows)/3]
	a0, a05, a1 := cell(t, midRow[1]), cell(t, midRow[4]), cell(t, midRow[7])
	if a05+1e-9 < a0 || a05+1e-9 < a1 {
		t.Fatalf("alpha=0.5 (%f) slower than extremes (%f, %f) at mid-processing", a05, a0, a1)
	}
	// Everyone finishes high.
	for c := 1; c < len(last); c++ {
		if v := cell(t, last[c]); v < 0.9 {
			t.Fatalf("final recall for %s = %f, want >= 0.9", tb.Header[c], v)
		}
	}
}

func TestFig4StorageShape(t *testing.T) {
	tb := Fig4(tinyCfg())[0]
	first := tb.Rows[0]
	nCols := len(tb.Header) - 1
	// Larger c ⇒ more stored profiles ⇒ better cycle-0 recall.
	small, large := cell(t, first[1]), cell(t, first[nCols])
	if large < small {
		t.Fatalf("cycle-0 recall: c=%s (%f) below c=%s (%f)",
			tb.Header[nCols], large, tb.Header[1], small)
	}
	last := tb.Rows[len(tb.Rows)-1]
	for c := 1; c <= nCols; c++ {
		if v := cell(t, last[c]); v < 0.99 {
			t.Fatalf("final recall for %s = %f, want ~1 (paper: all reach 1 by cycle 10)",
				tb.Header[c], v)
		}
	}
}

func TestFig5StorageShape(t *testing.T) {
	tb := Fig5(tinyCfg())[0]
	prevMean, prevPct := 0.0, 0.0
	for _, row := range tb.Rows {
		mean := cell(t, row[7])
		pct := cell(t, row[8])
		if mean < prevMean {
			t.Fatalf("mean storage decreased with larger c: %f after %f", mean, prevMean)
		}
		if pct < prevPct || pct > 100.0001 {
			t.Fatalf("%% of full invalid: %f after %f", pct, prevPct)
		}
		prevMean, prevPct = mean, pct
	}
	lastPct := cell(t, tb.Rows[len(tb.Rows)-1][8])
	if lastPct < 99.9 {
		t.Fatalf("c=s storage should be 100%% of full, got %f", lastPct)
	}
}

func TestFig6TrafficShape(t *testing.T) {
	tables := Fig6(tinyCfg())
	if len(tables) != 2 {
		t.Fatalf("got %d tables, want lambda=1 and lambda=4", len(tables))
	}
	for _, tb := range tables {
		if got := cell(t, tb.Rows[0][5]); got <= 0 {
			t.Fatalf("%s: partial-result mean bytes = %f", tb.Title, got)
		}
	}
	// lambda=4 resolves more profiles per user: fewer partial-result
	// messages (paper: 228 vs 70).
	msgs1 := cell(t, tables[0].Rows[3][5])
	msgs4 := cell(t, tables[1].Rows[3][5])
	if msgs4 > msgs1 {
		t.Fatalf("lambda=4 sends more partial-result messages (%f) than lambda=1 (%f)", msgs4, msgs1)
	}
}

func TestTable2Shape(t *testing.T) {
	tb := Table2(tinyCfg())[0]
	prevAvg := 0.0
	for _, row := range tb.Rows {
		c := cell(t, row[0])
		pct := cell(t, row[1])
		avg := cell(t, row[2])
		max := cell(t, row[3])
		if pct <= 0 || pct > 100 {
			t.Fatalf("c=%v: %% users = %f out of range", c, pct)
		}
		if avg > max {
			t.Fatalf("c=%v: avg %f > max %f", c, avg, max)
		}
		if max > c {
			t.Fatalf("c=%v: max to update %f exceeds storage", c, max)
		}
		if avg < prevAvg {
			t.Fatalf("average profiles to update decreased with larger c")
		}
		prevAvg = avg
	}
}

func TestFig7aAURShape(t *testing.T) {
	tb := Fig7a(tinyCfg())[0]
	first, last := tb.Rows[0], tb.Rows[len(tb.Rows)-1]
	for c := 1; c < len(tb.Header); c++ {
		f, l := cell(t, first[c]), cell(t, last[c])
		if f > 0.05 {
			t.Fatalf("%s: AUR starts at %f, want ~0 right after changes", tb.Header[c], f)
		}
		if l < 0.5 {
			t.Fatalf("%s: final AUR %f, want substantial refresh", tb.Header[c], l)
		}
	}
}

func TestFig7bAURShape(t *testing.T) {
	tb := Fig7b(tinyCfg())[0]
	last := tb.Rows[len(tb.Rows)-1]
	l1, l4 := cell(t, last[1]), cell(t, last[2])
	if l1 < 0.4 {
		t.Fatalf("lambda=1 final AUR = %f, want substantial refresh", l1)
	}
	// Paper: small stores are easier to keep fresh.
	if l4 > l1+0.05 {
		t.Fatalf("lambda=4 AUR (%f) should not exceed lambda=1 (%f)", l4, l1)
	}
}

func TestFig8ReachShape(t *testing.T) {
	tb := Fig8(tinyCfg())[0]
	if len(tb.Rows) != 2 {
		t.Fatalf("got %d rows", len(tb.Rows))
	}
	mean1 := cell(t, tb.Rows[0][5])
	mean4 := cell(t, tb.Rows[1][5])
	if mean1 <= 0 || mean4 <= 0 {
		t.Fatal("queries reached nobody")
	}
	// Paper: lambda=1 reaches several times more users than lambda=4.
	if mean1 < mean4 {
		t.Fatalf("lambda=1 mean reach (%f) below lambda=4 (%f)", mean1, mean4)
	}
}

func TestFig9EagerRefreshShape(t *testing.T) {
	tb := Fig9(tinyCfg())[0]
	if len(tb.Rows) < 3 {
		t.Fatalf("too few sampled points: %d", len(tb.Rows))
	}
	prev := -1.0
	for _, row := range tb.Rows {
		v := cell(t, row[1])
		if v < prev-0.1 { // allow small dips as the reached set grows
			t.Fatalf("AUR fell sharply: %f after %f", v, prev)
		}
		prev = v
	}
	firstAUR := cell(t, tb.Rows[0][1])
	lastAUR := cell(t, tb.Rows[len(tb.Rows)-1][1])
	if lastAUR < firstAUR {
		t.Fatalf("AUR did not improve over consecutive queries: %f -> %f", firstAUR, lastAUR)
	}
}

func TestFig10DiscoveryShape(t *testing.T) {
	tb := Fig10(tinyCfg())[0]
	first, last := tb.Rows[0], tb.Rows[len(tb.Rows)-1]
	for c := 1; c <= 2; c++ {
		f, l := cell(t, first[c]), cell(t, last[c])
		if l < f {
			t.Fatalf("%s: discovery ratio fell from %f to %f", tb.Header[c], f, l)
		}
		if l <= 0 {
			t.Fatalf("%s: nobody completed their new personal network", tb.Header[c])
		}
	}
}

func TestFig11ChurnShape(t *testing.T) {
	tb := Fig11a(tinyCfg())[0]
	last := tb.Rows[len(tb.Rows)-1]
	p0 := cell(t, last[1])
	p90 := cell(t, last[len(last)-1])
	if p0 < 0.99 {
		t.Fatalf("p=0%% final recall = %f, want ~1", p0)
	}
	if p90 > p0 {
		t.Fatalf("90%% departures should not beat 0%%: %f vs %f", p90, p0)
	}
	// Intermediate departure levels stay reasonably effective (paper: 50%
	// departures cost only ~10%).
	p50 := cell(t, last[4])
	if p50 < 0.6 {
		t.Fatalf("p=50%% final recall = %f, want >= 0.6", p50)
	}
}

func TestFig11cShape(t *testing.T) {
	cfg := tinyCfg()
	cfg.Queries = 30
	tb := Fig11c(cfg)[0]
	if len(tb.Rows) != 9 {
		t.Fatalf("got %d rows", len(tb.Rows))
	}
	lo1 := cell(t, tb.Rows[0][1])
	hi1 := cell(t, tb.Rows[len(tb.Rows)-1][1])
	if hi1 < lo1 {
		t.Fatalf("incomplete-query %% should grow with departures: %f -> %f", lo1, hi1)
	}
	if hi1 <= 0 {
		t.Fatal("90% departures should leave some queries incomplete")
	}
}

func TestTheoryShape(t *testing.T) {
	tables := Theory(tinyCfg())
	if len(tables) != 2 {
		t.Fatalf("got %d tables", len(tables))
	}
	t1 := tables[0]
	// R(alpha) at X=1 is minimal at alpha=0.5 (row index 3).
	min := cell(t, t1.Rows[3][1])
	for i, row := range t1.Rows {
		if v := cell(t, row[1]); v < min-1e-9 {
			t.Fatalf("R(alpha) row %d = %f below R(0.5) = %f", i, v, min)
		}
	}
	// Measured cycles: alpha=0.5 completes no slower than the extremes.
	m0, m05, m1 := cell(t, t1.Rows[0][4]), cell(t, t1.Rows[3][4]), cell(t, t1.Rows[6][4])
	if m05 > m0+1e-9 || m05 > m1+1e-9 {
		t.Fatalf("measured: alpha=0.5 (%f) slower than extremes (%f, %f)", m05, m0, m1)
	}
}

func TestBandwidthShape(t *testing.T) {
	tb := Bandwidth(tinyCfg())[0]
	if len(tb.Rows) != 6 {
		t.Fatalf("got %d rows", len(tb.Rows))
	}
	lazy := cell(t, tb.Rows[0][1])
	burst := cell(t, tb.Rows[1][1])
	if lazy <= 0 || burst <= 0 {
		t.Fatalf("bandwidth figures not positive: lazy=%f burst=%f", lazy, burst)
	}
	// The paper's qualitative claim: the eager burst (per query, including
	// the piggybacked maintenance) is larger than the per-user lazy
	// background.
	if burst < lazy {
		t.Fatalf("query burst (%f Kbps) below lazy background (%f Kbps)", burst, lazy)
	}
}

func TestTablesRender(t *testing.T) {
	// Every experiment's output must render without error.
	cfg := tinyCfg()
	cfg.Queries = 20
	cfg.Cycles = 6
	for _, r := range []Runner{mustLookup(t, "table1"), mustLookup(t, "fig5"), mustLookup(t, "table2")} {
		for _, tb := range r.Run(cfg) {
			var buf bytes.Buffer
			if err := tb.Fprint(&buf); err != nil {
				t.Fatalf("%s: Fprint: %v", r.Name, err)
			}
			if buf.Len() == 0 {
				t.Fatalf("%s: empty output", r.Name)
			}
			buf.Reset()
			if err := tb.CSV(&buf); err != nil {
				t.Fatalf("%s: CSV: %v", r.Name, err)
			}
		}
	}
}

func mustLookup(t *testing.T, name string) Runner {
	t.Helper()
	r, ok := Lookup(name)
	if !ok {
		t.Fatalf("experiment %s not registered", name)
	}
	return r
}

func TestLocalOnlyShape(t *testing.T) {
	tb := LocalOnly(tinyCfg())[0]
	if len(tb.Rows) < 3 {
		t.Fatalf("too few storage points: %d", len(tb.Rows))
	}
	prev := -1.0
	for _, row := range tb.Rows {
		r := cell(t, row[1])
		if r < prev-0.02 { // recall must grow with storage (small noise ok)
			t.Fatalf("local-only recall fell from %f to %f as c grew", prev, r)
		}
		prev = r
	}
	first := cell(t, tb.Rows[0][1])
	last := cell(t, tb.Rows[len(tb.Rows)-1][1])
	if last-first < 0.2 {
		t.Fatalf("storage barely affects local-only recall: %f -> %f", first, last)
	}
}

func TestExpansionShape(t *testing.T) {
	tb := Expansion(tinyCfg())[0]
	if len(tb.Rows) != 2 {
		t.Fatalf("got %d rows", len(tb.Rows))
	}
	bare := cell(t, tb.Rows[0][1])
	expanded := cell(t, tb.Rows[1][1])
	if expanded < bare {
		t.Fatalf("expansion hurt recall: %f -> %f", bare, expanded)
	}
	if expanded-bare < 0.02 {
		t.Fatalf("expansion shows no benefit: %f -> %f", bare, expanded)
	}
}

func TestAblationsShape(t *testing.T) {
	tb := Ablations(tinyCfg())[0]
	if len(tb.Rows) != 3 {
		t.Fatalf("got %d rows", len(tb.Rows))
	}
	// 3-step exchange must not cost more than naive full shipping.
	with := cell(t, tb.Rows[0][1])
	without := cell(t, tb.Rows[0][2])
	if with > without {
		t.Fatalf("3-step exchange (%f B) costs more than naive (%f B)", with, without)
	}
	// Incremental NRA must scan no more entries than recomputation.
	scanned := cell(t, tb.Rows[2][1])
	rescan := cell(t, tb.Rows[2][2])
	if scanned > rescan {
		t.Fatalf("incremental NRA scanned %f entries, recompute %f", scanned, rescan)
	}
}

func TestScaledBloomBits(t *testing.T) {
	paper := Config{MeanItems: 249}
	if got := paper.ScaledBloomBits(); got != 20*1024 {
		t.Fatalf("paper-scale bloom bits = %d, want 20Kbit", got)
	}
	small := Config{MeanItems: 5}
	if got := small.ScaledBloomBits(); got < 1024 || got%64 != 0 {
		t.Fatalf("small-scale bloom bits = %d invalid", got)
	}
}

func TestScaledClassAndDigestCap(t *testing.T) {
	paper := Config{S: 1000}
	if paper.ScaledClass(10) != 10 || paper.ScaledClass(1000) != 1000 {
		t.Fatal("paper-scale classes must be identity")
	}
	if paper.DigestCap() != 50 {
		t.Fatalf("paper-scale digest cap = %d, want 50", paper.DigestCap())
	}
	small := Config{S: 50}
	if got := small.ScaledClass(1000); got != 50 {
		t.Fatalf("scaled top class = %d, want 50", got)
	}
	if got := small.ScaledClass(10); got != 1 {
		t.Fatalf("scaled bottom class = %d, want 1", got)
	}
	if cap := small.DigestCap(); cap < 2 || cap > 5 {
		t.Fatalf("scaled digest cap = %d, want a small positive bound", cap)
	}
}

func TestLatencyShape(t *testing.T) {
	tb := Latency(tinyCfg())[0]
	if len(tb.Rows) != 5 {
		t.Fatalf("latency table has %d rows, want 5 models", len(tb.Rows))
	}
	if tb.Rows[0][0] != "sync" {
		t.Fatalf("first row is %q, want the synchronous baseline", tb.Rows[0][0])
	}
	for _, row := range tb.Rows {
		p50, p99 := cell(t, row[4]), cell(t, row[6])
		if p99 < p50 {
			t.Fatalf("%s: time-to-full-recall p99 %f below p50 %f", row[0], p99, p50)
		}
		if done := cell(t, row[7]); done <= 0 {
			t.Fatalf("%s: no query completed", row[0])
		}
	}
	// Delay can only push the full-recall tail outward relative to the
	// synchronous rounds (same gossip schedule, later arrivals).
	syncP99 := cell(t, tb.Rows[0][6])
	for _, row := range tb.Rows[1:] {
		if cell(t, row[6]) < syncP99 {
			t.Fatalf("%s: full-recall p99 %f below the synchronous %f", row[0], cell(t, row[6]), syncP99)
		}
	}
}

func TestTimelineShape(t *testing.T) {
	tb := Timeline(tinyCfg())[0]
	if len(tb.Rows) < 3 {
		t.Fatalf("too few time marks: %d", len(tb.Rows))
	}
	prevRecall := -1.0
	for _, row := range tb.Rows {
		r := cell(t, row[1])
		if r < prevRecall-0.05 {
			t.Fatalf("recall fell sharply over time: %f after %f", r, prevRecall)
		}
		prevRecall = r
	}
	last := tb.Rows[len(tb.Rows)-1]
	if cell(t, last[1]) < 0.95 {
		t.Fatalf("final recall = %s, want near 1 within two simulated minutes", last[1])
	}
	if cell(t, last[2]) < 95 {
		t.Fatalf("only %s%% of queries done within two simulated minutes", last[2])
	}
}

// TestTimelineAnswersQueryWithinPaperBudget: §3.5, "the query can be
// accurately answered within 50 seconds".
func TestTimelineAnswersQueryWithinPaperBudget(t *testing.T) {
	tb := Timeline(tinyCfg())[0]
	last := tb.Rows[len(tb.Rows)-1]
	if cell(t, last[2]) != 100 || cell(t, last[0]) > 50 {
		t.Fatalf("%s%% of queries done after %ss, want all within 50s", last[2], last[0])
	}
}

// scheduleLog is a cycler that records the cycles it is asked to run; its
// queries are done after inFlight eager cycles (never when negative).
type scheduleLog struct {
	cycles   []string
	inFlight int
}

func (s *scheduleLog) LazyCycle()           { s.cycles = append(s.cycles, "lazy") }
func (s *scheduleLog) EagerCycle()          { s.cycles = append(s.cycles, "eager"); s.inFlight-- }
func (s *scheduleLog) AllQueriesDone() bool { return s.inFlight == 0 }

// checkSchedule runs the timeline's steps on a scheduleLog whose queries
// are done after inFlight eager cycles, and wants one lazy cycle at every
// 12th 5s step, before that step's eager cycle, and eager cycles only while
// queries are in flight.
func checkSchedule(t *testing.T, inFlight int) {
	t.Helper()
	s := &scheduleLog{inFlight: inFlight}
	var want []string
	eager := inFlight
	for step := 1; step <= timelineSteps; step++ {
		timelineStep(s, step)
		if step%12 == 0 {
			want = append(want, "lazy")
		}
		if eager != 0 {
			want = append(want, "eager")
			eager--
		}
	}
	if !slices.Equal(s.cycles, want) {
		t.Fatalf("in flight for %d eager cycles: ran %v, want %v", inFlight, s.cycles, want)
	}
}

// TestTimelineFiresCyclesAtPeriods pins the §3.5 periods the timeline
// drives with a query always in flight: an eager cycle at every 5s step and
// a lazy cycle at every 12th, before that step's eager cycle.
func TestTimelineFiresCyclesAtPeriods(t *testing.T) {
	if lazyEvery != 12 {
		t.Fatalf("lazyEvery = %d, want 12 eager periods per lazy period", lazyEvery)
	}
	checkSchedule(t, -1)
}

// TestTimelineEagerOnlyWithActiveQueries: the timeline runs eager cycles
// only while queries are in flight, and lazy cycles regardless.
func TestTimelineEagerOnlyWithActiveQueries(t *testing.T) {
	for _, inFlight := range []int{3, 0} {
		checkSchedule(t, inFlight)
	}
}

// TestTimelineScheduleOnTheEngine runs two simulated minutes of the
// schedule on an engine with a new query issued at every step: 2 lazy
// cycles, and one eager cycle per step that had a query in flight, so at
// most 24.
func TestTimelineScheduleOnTheEngine(t *testing.T) {
	cfg := tinyCfg()
	w := NewWorld(cfg)
	e := w.SeededEngine(cfg.HeteroConfig(1))
	inFlight := 0
	for step := 1; step <= timelineSteps; step++ {
		e.IssueQuery(w.Queries[step-1])
		if !e.AllQueriesDone() {
			inFlight++
		}
		timelineStep(e, step)
	}
	t.Logf("%d of %d steps had a query in flight", inFlight, timelineSteps)
	if e.LazyCycles() != 2 || e.EagerCycles() != inFlight || inFlight > timelineSteps {
		t.Fatalf("two minutes ran %d lazy and %d eager cycles, want 2 and %d (at most %d)",
			e.LazyCycles(), e.EagerCycles(), inFlight, timelineSteps)
	}
}
