package core

import (
	"testing"

	"p3q/internal/sim"
	"p3q/internal/trace"
)

// Regression tests for the eager mode's behaviour under querier churn: a
// departed querier must neither lose resolved profiles (the recall-1
// guarantee of §2.2.2 has to survive §3.4.2-style departures) nor keep the
// engine burning cycles on branches nobody will read.

// TestOfflineQuerierRetainsResolvedProfiles drives branch gossips through
// gossipEagerPairs while the querier is offline — bypassing EagerCycle's
// stall gate — to pin the plan-level fix: resolved profiles used to be
// dropped from every remaining list forever when the querier could not
// receive them, leaving ProfilesUsed short of ProfilesNeeded with no way to
// recover.
func TestOfflineQuerierRetainsResolvedProfiles(t *testing.T) {
	cfg := smallCfg()
	w := newWorld(t, 120, cfg, 57)
	e := New(w.ds, cfg)
	e.SeedIdealNetworks(w.ideal)
	q, ok := trace.QueryFor(w.ds, 3, 14)
	if !ok {
		t.Fatal("no query for user 3")
	}
	qr := e.IssueQuery(q)
	e.RunEager(2) // spread branches beyond the querier
	if qr.Done() {
		t.Fatal("query finished before the churn could hit; weaken the head start")
	}
	e.Network().SetOnline(q.Querier, false)

	retained := false
	probesBefore := e.Network().Total().Msgs[sim.MsgProbe]
	usedBefore := qr.ProfilesUsed()
	for cycle := 0; cycle < 30; cycle++ {
		seq := e.cycleSeq
		e.cycleSeq++
		var pairs []eagerPair
		for u := range e.nodes {
			n := e.nodes[u]
			if e.net.Online(n.id) && len(n.branch(qr.ID)) > 0 {
				pairs = append(pairs, eagerPair{u: n.id, qid: qr.ID})
			}
		}
		var cp EagerCapture
		e.gossipEagerPairs(pairs, seq, &cp)
		e.pumpEvents(e.now)
		for _, pc := range cp.Pairs {
			if len(pc.FoundOwners) > 0 && !pc.Delivered {
				retained = true
			}
		}
	}
	if !retained {
		t.Fatal("no remaining-list member was resolved while the querier was offline; scenario too weak to test retention")
	}
	if qr.ProfilesUsed() != usedBefore {
		t.Fatal("partial results were delivered to an offline querier")
	}
	if e.Network().Total().Msgs[sim.MsgProbe] == probesBefore {
		t.Fatal("failed partial-result attempts were not charged as probes")
	}

	// The retained members must still be deliverable after revival.
	e.Network().SetOnline(q.Querier, true)
	e.RunEager(200)
	if !qr.Done() {
		t.Fatal("query did not complete after the querier revived")
	}
	if qr.ProfilesUsed() != qr.ProfilesNeeded() {
		t.Fatalf("profiles used %d != needed %d: resolved profiles were lost while the querier was offline",
			qr.ProfilesUsed(), qr.ProfilesNeeded())
	}
	want := exactReference(e, q, cfg.K)
	got := qr.Results()
	if len(got) != len(want) {
		t.Fatalf("got %d results, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("result %d = %v, want %v (exact baseline)", i, got[i], want[i])
		}
	}
}

// TestStalledQueryLifecycle covers both lifecycle paths of a killed
// querier: cancel-forever (the query stalls, freezes its counters, and
// stops consuming the engine's cycle budget) and revive-and-finish (the
// query resumes automatically and still reaches full recall).
func TestStalledQueryLifecycle(t *testing.T) {
	cfg := smallCfg()
	w := newWorld(t, 120, cfg, 58)
	e := New(w.ds, cfg)
	e.SeedIdealNetworks(w.ideal)
	q, ok := trace.QueryFor(w.ds, 5, 3)
	if !ok {
		t.Fatal("no query for user 5")
	}
	qr := e.IssueQuery(q)
	if qr.State() != QueryActive {
		t.Fatalf("fresh query state = %v, want %v", qr.State(), QueryActive)
	}
	e.RunEager(2)
	if qr.Done() {
		t.Fatal("query finished before the churn could hit")
	}

	e.Network().SetOnline(q.Querier, false)
	if !qr.Stalled() || qr.State() != QueryStalled {
		t.Fatalf("killed querier left state %v, want %v", qr.State(), QueryStalled)
	}
	if st := e.Stats().QueriesStalled; st != 1 {
		t.Fatalf("Stats().QueriesStalled = %d, want 1", st)
	}

	// Cancel-forever path: the stalled query must not keep RunEager busy.
	if ran := e.RunEager(50); ran != 0 {
		t.Fatalf("RunEager ran %d cycles for a stalled-only query, want 0", ran)
	}
	bytesBefore, cyclesBefore := qr.Bytes(), qr.Cycles()
	trafficBefore := e.Network().Total()
	e.EagerCycle() // a forced cycle must leave the stalled query frozen
	if qr.Bytes() != bytesBefore {
		t.Fatal("stalled query generated traffic")
	}
	if qr.Cycles() != cyclesBefore {
		t.Fatal("stalled query advanced its cycle count")
	}
	if e.Network().Total() != trafficBefore {
		t.Fatal("a cycle with only a stalled query sent messages")
	}
	if qr.Done() {
		t.Fatal("stalled query completed without its querier")
	}

	// Revive-and-finish path.
	e.Network().SetOnline(q.Querier, true)
	if qr.State() != QueryActive {
		t.Fatalf("revived querier left state %v, want %v", qr.State(), QueryActive)
	}
	e.RunEager(200)
	if !qr.Done() || qr.State() != QueryDone {
		t.Fatalf("query did not finish after revival (state %v)", qr.State())
	}
	if qr.ProfilesUsed() != qr.ProfilesNeeded() {
		t.Fatalf("profiles used %d != needed %d after revival", qr.ProfilesUsed(), qr.ProfilesNeeded())
	}
	want := exactReference(e, q, cfg.K)
	got := qr.Results()
	for i := range want {
		if i >= len(got) || got[i] != want[i] {
			t.Fatalf("results diverge from exact baseline after revival: got %v want %v", got, want)
		}
	}
}

// TestStalledQueryDoesNotBlockOthers checks that one departed querier
// neither blocks the other queries nor keeps RunEager running once the
// survivors finish (the old behaviour burned the entire cycle budget).
func TestStalledQueryDoesNotBlockOthers(t *testing.T) {
	cfg := smallCfg()
	w := newWorld(t, 150, cfg, 59)
	e := New(w.ds, cfg)
	e.SeedIdealNetworks(w.ideal)
	qa, ok := trace.QueryFor(w.ds, 2, 7)
	if !ok {
		t.Fatal("no query for user 2")
	}
	qb, ok := trace.QueryFor(w.ds, 9, 8)
	if !ok {
		t.Fatal("no query for user 9")
	}
	ra := e.IssueQuery(qa)
	rb := e.IssueQuery(qb)
	e.RunEager(1)
	if ra.Done() {
		t.Fatal("query A finished before the churn could hit")
	}
	e.Network().SetOnline(qa.Querier, false)

	ran := e.RunEager(60)
	if ran >= 60 {
		t.Fatal("RunEager burned the whole budget despite only a stalled query left")
	}
	if !rb.Done() {
		t.Fatal("active query did not complete alongside a stalled one")
	}
	if ra.Done() {
		t.Fatal("stalled query completed without its querier")
	}
	if !e.AllQueriesDone() {
		t.Fatal("stalled query kept AllQueriesDone false")
	}
}
