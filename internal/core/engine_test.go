package core

import (
	"testing"

	"p3q/internal/metrics"
	"p3q/internal/sim"
	"p3q/internal/similarity"
	"p3q/internal/tagging"
	"p3q/internal/topk"
	"p3q/internal/trace"
)

// testWorld bundles a small dataset with its ideal networks.
type testWorld struct {
	ds    *trace.Dataset
	ideal [][]similarity.Neighbour
	cfg   Config
}

func newWorld(t testing.TB, users int, cfg Config, seed uint64) *testWorld {
	t.Helper()
	p := trace.DefaultGenParams(users)
	p.MeanItems = 20
	p.Seed = seed
	ds := trace.Generate(p)
	return &testWorld{ds: ds, ideal: similarity.IdealNetworks(ds, cfg.S), cfg: cfg}
}

func smallCfg() Config {
	cfg := DefaultConfig()
	cfg.S = 20
	cfg.C = 5
	cfg.BloomBits = 2048 // smaller digests keep tests fast
	cfg.BloomHashes = 6
	return cfg
}

// exactReference computes the centralized baseline for a query: the exact
// top-k over the querier's own profile plus the profiles of her personal
// network members.
func exactReference(e *Engine, q trace.Query, k int) []topk.Entry {
	u := e.Node(q.Querier)
	snaps := []tagging.Snapshot{u.Profile().Snapshot()}
	for _, id := range u.PersonalNetwork().Members() {
		snaps = append(snaps, e.Dataset().Profiles[id].Snapshot())
	}
	return topk.Exact(snaps, topk.NewTagSet(q.Tags), k)
}

func TestSeedIdealNetworksInstallsState(t *testing.T) {
	w := newWorld(t, 100, smallCfg(), 1)
	e := New(w.ds, w.cfg)
	e.SeedIdealNetworks(w.ideal)
	for u := 0; u < e.Users(); u++ {
		n := e.Node(tagging.UserID(u))
		want := len(w.ideal[u])
		if want > w.cfg.S {
			want = w.cfg.S
		}
		if n.PersonalNetwork().Len() != want {
			t.Fatalf("user %d: pnet size %d, want %d", u, n.PersonalNetwork().Len(), want)
		}
		stored := n.PersonalNetwork().StoredEntries()
		wantStored := w.cfg.C
		if wantStored > want {
			wantStored = want
		}
		if len(stored) != wantStored {
			t.Fatalf("user %d: %d stored, want %d", u, len(stored), wantStored)
		}
		for _, entry := range stored {
			if !entry.StoredFresh() {
				t.Fatalf("user %d: seeded snapshot of %d is stale", u, entry.ID)
			}
		}
		if n.View().Size() == 0 {
			t.Fatalf("user %d: random view not bootstrapped", u)
		}
	}
}

func TestEagerQueryReachesExactResults(t *testing.T) {
	w := newWorld(t, 150, smallCfg(), 2)
	e := New(w.ds, w.cfg)
	e.SeedIdealNetworks(w.ideal)
	queries := trace.GenerateQueries(w.ds, 7)
	for _, q := range queries[:25] {
		qr := e.IssueQuery(q)
		if qr == nil {
			t.Fatalf("IssueQuery returned nil for online querier %d", q.Querier)
		}
	}
	cycles := e.RunEager(50)
	if !e.AllQueriesDone() {
		t.Fatalf("queries not done after %d cycles", cycles)
	}
	all := e.Queries()
	if qr := e.Query(uint64(len(all))); qr != nil {
		t.Fatalf("Query(%d) = query %d; no query with that ID was issued", len(all), qr.ID)
	}
	for id, qr := range all {
		if e.Query(uint64(id)) != qr {
			t.Fatalf("Query(%d) is not the query issued %d-th", id, id)
		}
		want := exactReference(e, qr.Query, w.cfg.K)
		got := qr.Results()
		if len(got) != len(want) {
			t.Fatalf("query %d: got %d results, want %d\n got=%v\nwant=%v",
				qr.ID, len(got), len(want), got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("query %d: result %d = %v, want %v (exact baseline)",
					qr.ID, i, got[i], want[i])
			}
		}
	}
}

func TestEagerPartitionNoDoubleCounting(t *testing.T) {
	// The final drained scores equal the exact sums; if any profile were
	// counted twice the scores would exceed them. Run with alpha values on
	// both sides of 0.5 to exercise different split shapes.
	for _, alpha := range []float64{0.0, 0.3, 0.7, 1.0} {
		cfg := smallCfg()
		cfg.Alpha = alpha
		w := newWorld(t, 100, cfg, 3)
		e := New(w.ds, cfg)
		e.SeedIdealNetworks(w.ideal)
		q, ok := trace.QueryFor(w.ds, 5, 11)
		if !ok {
			t.Fatal("no query for user 5")
		}
		qr := e.IssueQuery(q)
		e.RunEager(100)
		if !qr.Done() {
			t.Fatalf("alpha=%.1f: query not done", alpha)
		}
		want := exactReference(e, q, cfg.K)
		got := qr.Results()
		for i := range want {
			if i >= len(got) || got[i] != want[i] {
				t.Fatalf("alpha=%.1f: results diverge from exact: got %v want %v",
					alpha, got, want)
			}
		}
	}
}

func TestEagerProfilesUsedEqualsNeeded(t *testing.T) {
	w := newWorld(t, 100, smallCfg(), 4)
	e := New(w.ds, w.cfg)
	e.SeedIdealNetworks(w.ideal)
	q, _ := trace.QueryFor(w.ds, 0, 3)
	qr := e.IssueQuery(q)
	e.RunEager(100)
	if !qr.Done() {
		t.Fatal("query not done")
	}
	if qr.ProfilesUsed() != qr.ProfilesNeeded() {
		t.Fatalf("profiles used %d != needed %d at completion",
			qr.ProfilesUsed(), qr.ProfilesNeeded())
	}
}

func TestEagerImmediateCompletionWhenAllStored(t *testing.T) {
	cfg := smallCfg()
	cfg.C = cfg.S // store everything: no gossip needed
	w := newWorld(t, 80, cfg, 5)
	e := New(w.ds, cfg)
	e.SeedIdealNetworks(w.ideal)
	q, _ := trace.QueryFor(w.ds, 3, 9)
	qr := e.IssueQuery(q)
	if !qr.Done() {
		t.Fatal("query with full storage should complete locally (Algorithm 2 line 4)")
	}
	if qr.Cycles() != 0 {
		t.Fatalf("cycles = %d, want 0", qr.Cycles())
	}
	want := exactReference(e, q, cfg.K)
	got := qr.Results()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("local-only results diverge: got %v want %v", got, want)
		}
	}
}

func TestEagerRecallImprovesMonotonically(t *testing.T) {
	w := newWorld(t, 150, smallCfg(), 6)
	e := New(w.ds, w.cfg)
	e.SeedIdealNetworks(w.ideal)
	q, _ := trace.QueryFor(w.ds, 10, 5)
	qr := e.IssueQuery(q)
	want := exactReference(e, q, w.cfg.K)
	prev := topk.Recall(qr.Results(), want)
	finalRecall := prev
	for i := 0; i < 40 && !qr.Done(); i++ {
		e.EagerCycle()
		finalRecall = topk.Recall(qr.Results(), want)
	}
	if !qr.Done() {
		t.Fatal("query did not complete")
	}
	if finalRecall != 1 {
		t.Fatalf("final recall = %f, want 1", finalRecall)
	}
	if prev > finalRecall {
		t.Fatalf("recall regressed from %f to %f", prev, finalRecall)
	}
}

func TestEagerUsersReachedBounded(t *testing.T) {
	w := newWorld(t, 120, smallCfg(), 7)
	e := New(w.ds, w.cfg)
	e.SeedIdealNetworks(w.ideal)
	q, _ := trace.QueryFor(w.ds, 2, 13)
	qr := e.IssueQuery(q)
	e.RunEager(100)
	if qr.UsersReached() > w.cfg.S+1 {
		t.Fatalf("reached %d users, more than s+1 = %d", qr.UsersReached(), w.cfg.S+1)
	}
	if qr.PartialResultMessages() >= qr.UsersReached()+1 {
		t.Fatalf("partial result messages %d >= users reached + 1 (%d)",
			qr.PartialResultMessages(), qr.UsersReached()+1)
	}
}

func TestEagerQueryBytesAccounted(t *testing.T) {
	w := newWorld(t, 100, smallCfg(), 8)
	e := New(w.ds, w.cfg)
	e.SeedIdealNetworks(w.ideal)
	q, _ := trace.QueryFor(w.ds, 4, 17)
	qr := e.IssueQuery(q)
	e.RunEager(100)
	b := qr.Bytes()
	if b.Forwarded == 0 || b.PartialResults == 0 {
		t.Fatalf("query traffic not accounted: %+v", b)
	}
	if b.Total() != b.Forwarded+b.Returned+b.PartialResults {
		t.Fatal("QueryBytes.Total inconsistent")
	}
	nt := e.Network().Total()
	if nt.Bytes[sim.MsgQueryForward] < b.Forwarded {
		t.Fatal("network counter misses query-forward bytes")
	}
}

func TestIssueQueryOfflineQuerier(t *testing.T) {
	w := newWorld(t, 50, smallCfg(), 9)
	e := New(w.ds, w.cfg)
	e.SeedIdealNetworks(w.ideal)
	e.Network().SetOnline(3, false)
	q, _ := trace.QueryFor(w.ds, 3, 1)
	if qr := e.IssueQuery(q); qr != nil {
		t.Fatal("IssueQuery for departed querier returned a run")
	}
}

func TestEngineDeterminism(t *testing.T) {
	run := func() (uint64, int) {
		w := newWorld(t, 80, smallCfg(), 10)
		e := New(w.ds, w.cfg)
		e.SeedIdealNetworks(w.ideal)
		qs := trace.GenerateQueries(w.ds, 3)
		for _, q := range qs[:10] {
			e.IssueQuery(q)
		}
		e.RunEager(30)
		sum := 0
		for _, qr := range e.Queries() {
			for _, r := range qr.Results() {
				sum += int(r.Item) + r.Score
			}
			sum += qr.UsersReached()
		}
		return e.Network().Total().TotalBytes(), sum
	}
	b1, s1 := run()
	b2, s2 := run()
	if b1 != b2 || s1 != s2 {
		t.Fatalf("two identical runs diverged: bytes %d vs %d, result sum %d vs %d", b1, b2, s1, s2)
	}
}

func TestLazyConvergenceImprovesSuccessRatio(t *testing.T) {
	cfg := smallCfg()
	cfg.S = 10
	cfg.C = 5
	w := newWorld(t, 100, cfg, 11)
	e := New(w.ds, cfg)
	e.Bootstrap()
	ratio := func() float64 {
		vals := make([]float64, 0, e.Users())
		for u := 0; u < e.Users(); u++ {
			scores := make(map[tagging.UserID]int)
			for _, entry := range e.Node(tagging.UserID(u)).PersonalNetwork().Ranking() {
				scores[entry.ID] = int(entry.Score)
			}
			vals = append(vals, metrics.SuccessRatio(scores, w.ideal[u]))
		}
		return metrics.Mean(vals)
	}
	start := ratio()
	e.RunLazy(25)
	end := ratio()
	if end < start {
		t.Fatalf("success ratio fell from %f to %f", start, end)
	}
	if end < 0.6 {
		t.Fatalf("success ratio after 25 lazy cycles = %f, want >= 0.6", end)
	}
}

func TestLazyScoresAreExact(t *testing.T) {
	// Every score in every personal network must equal the true similarity
	// (Bloom false positives must not inflate scores; step 2 computes exact
	// intersections).
	cfg := smallCfg()
	w := newWorld(t, 80, cfg, 12)
	e := New(w.ds, cfg)
	e.Bootstrap()
	e.RunLazy(10)
	for u := 0; u < e.Users(); u++ {
		p := w.ds.Profiles[u]
		for _, entry := range e.Node(tagging.UserID(u)).PersonalNetwork().Ranking() {
			truth := p.CommonScore(w.ds.Profiles[entry.ID].Snapshot())
			if int(entry.Score) != truth {
				t.Fatalf("user %d neighbour %d: score %d, true similarity %d",
					u, entry.ID, entry.Score, truth)
			}
		}
	}
}

func TestLazyTrafficUsesThreeSteps(t *testing.T) {
	w := newWorld(t, 80, smallCfg(), 13)
	e := New(w.ds, w.cfg)
	e.Bootstrap()
	e.RunLazy(5)
	tr := e.Network().Total()
	if tr.Bytes[sim.MsgRandomView] == 0 {
		t.Fatal("no bottom-layer traffic")
	}
	if tr.Bytes[sim.MsgTopDigest] == 0 {
		t.Fatal("no step-1 digest traffic")
	}
	if tr.Bytes[sim.MsgCommonItems] == 0 {
		t.Fatal("no step-2 common-item traffic")
	}
	if tr.Bytes[sim.MsgProfile] == 0 {
		t.Fatal("no step-3 profile traffic")
	}
}

func TestProfileChangePropagatesThroughLazyGossip(t *testing.T) {
	cfg := smallCfg()
	w := newWorld(t, 80, cfg, 14)
	e := New(w.ds, cfg)
	e.SeedIdealNetworks(w.ideal)

	// Change some profiles; replicas become stale.
	changes := trace.GenerateChanges(w.ds, trace.ChangeParams{
		FracUsers: 0.3, MeanNew: 5, SigmaNew: 0.5, MaxNew: 20, Seed: 5,
	})
	changedVersion := make(map[tagging.UserID]int)
	for _, c := range changes {
		c.Apply(w.ds)
		changedVersion[c.User] = w.ds.Profiles[c.User].Version()
	}
	aur := func() float64 {
		var vals []float64
		for u := 0; u < e.Users(); u++ {
			var stored []metrics.Replica
			for _, entry := range e.Node(tagging.UserID(u)).PersonalNetwork().StoredEntries() {
				stored = append(stored, metrics.Replica{Owner: entry.ID, Version: int(entry.Stored)})
			}
			if r, ok := metrics.UpdateRate(stored, changedVersion); ok {
				vals = append(vals, r)
			}
		}
		return metrics.Mean(vals)
	}
	before := aur()
	if before > 0.2 {
		t.Fatalf("AUR right after changes = %f, expected near 0", before)
	}
	e.RunLazy(30)
	after := aur()
	if after < 0.8 {
		t.Fatalf("AUR after 30 lazy cycles = %f, want >= 0.8 (small c keeps replicas fresh, §3.4.1)", after)
	}
}

func TestEagerGossipRefreshesReachedUsers(t *testing.T) {
	// Figure 9's mechanism: consecutive queries from one user refresh the
	// stale replicas of the users they reach, without any lazy cycle.
	cfg := smallCfg()
	w := newWorld(t, 100, cfg, 15)
	e := New(w.ds, cfg)
	e.SeedIdealNetworks(w.ideal)
	changes := trace.GenerateChanges(w.ds, trace.ChangeParams{
		FracUsers: 0.5, MeanNew: 6, SigmaNew: 0.5, MaxNew: 20, Seed: 6,
	})
	changedVersion := make(map[tagging.UserID]int)
	for _, c := range changes {
		c.Apply(w.ds)
		changedVersion[c.User] = w.ds.Profiles[c.User].Version()
	}

	reached := make(map[tagging.UserID]struct{})
	for i := 0; i < 10; i++ {
		q, ok := trace.QueryFor(w.ds, 0, uint64(100+i))
		if !ok {
			t.Fatal("no query")
		}
		qr := e.IssueQuery(q)
		e.RunEager(40)
		if !qr.Done() {
			t.Fatal("query did not complete")
		}
		for _, u := range qr.Reached() {
			reached[u] = struct{}{}
		}
	}
	// Fresh profile versions can only enter eager traffic through exchange
	// participants (remaining-list members advertise their own profiles),
	// so measure the refresh rate over replicas whose owners participated —
	// the paper-scale setting (s=1000, c=10) makes nearly every cluster
	// member a participant, which is why Figure 9 reports higher absolute
	// rates.
	participantChanged := make(map[tagging.UserID]int)
	for u := range reached {
		if v, ok := changedVersion[u]; ok {
			participantChanged[u] = v
		}
	}
	if len(participantChanged) == 0 {
		t.Fatal("no participant changed her profile; change-set too small")
	}
	var vals []float64
	for u := range reached {
		var stored []metrics.Replica
		for _, entry := range e.Node(u).PersonalNetwork().StoredEntries() {
			stored = append(stored, metrics.Replica{Owner: entry.ID, Version: int(entry.Stored)})
		}
		if r, ok := metrics.UpdateRate(stored, participantChanged); ok {
			vals = append(vals, r)
		}
	}
	if len(vals) == 0 {
		t.Skip("no reached user stores a participant's changed profile at this scale")
	}
	if aur := metrics.Mean(vals); aur < 0.3 {
		t.Fatalf("AUR over participant-owned replicas after 10 queries = %f, want >= 0.3", aur)
	}
}

func TestChurnQueriesStillComplete(t *testing.T) {
	cfg := smallCfg()
	w := newWorld(t, 150, cfg, 16)
	e := New(w.ds, cfg)
	e.SeedIdealNetworks(w.ideal)
	killed := e.Kill(0.3)
	if len(killed) == 0 {
		t.Fatal("Kill removed nobody")
	}
	issued, completedRecall := 0, 0.0
	queries := trace.GenerateQueries(w.ds, 21)
	for _, q := range queries[:40] {
		if !e.Network().Online(q.Querier) {
			continue
		}
		qr := e.IssueQuery(q)
		if qr == nil {
			continue
		}
		issued++
		want := exactReference(e, q, cfg.K)
		e.RunEager(15)
		completedRecall += topk.Recall(qr.Results(), want)
	}
	if issued == 0 {
		t.Fatal("no queries issued")
	}
	avg := completedRecall / float64(issued)
	if avg < 0.7 {
		t.Fatalf("average recall under 30%% churn = %f, want >= 0.7 (paper: 50%% departures cost ~10%%)", avg)
	}
}

func TestChurnProbesRecorded(t *testing.T) {
	cfg := smallCfg()
	w := newWorld(t, 100, cfg, 17)
	e := New(w.ds, cfg)
	e.SeedIdealNetworks(w.ideal)
	e.Kill(0.5)
	for _, q := range trace.GenerateQueries(w.ds, 23)[:20] {
		e.IssueQuery(q)
	}
	e.RunEager(10)
	if e.Network().Total().Msgs[sim.MsgProbe] == 0 {
		t.Fatal("no probes recorded despite 50% departures")
	}
}

func TestRunEagerStopsWhenAllDone(t *testing.T) {
	w := newWorld(t, 80, smallCfg(), 18)
	e := New(w.ds, w.cfg)
	e.SeedIdealNetworks(w.ideal)
	q, _ := trace.QueryFor(w.ds, 1, 2)
	e.IssueQuery(q)
	ran := e.RunEager(100)
	if ran >= 100 {
		t.Fatalf("RunEager did not stop at completion (ran %d cycles)", ran)
	}
	more := e.RunEager(5)
	if more != 0 {
		t.Fatalf("RunEager ran %d extra cycles after completion", more)
	}
}
