package core

import (
	"testing"

	"p3q/internal/tagging"
	"p3q/internal/topk"
	"p3q/internal/trace"
)

func TestReviveRestoresLiveness(t *testing.T) {
	w := newWorld(t, 100, smallCfg(), 30)
	e := New(w.ds, w.cfg)
	e.SeedIdealNetworks(w.ideal)
	killed := e.Kill(0.4)
	if e.Network().OnlineCount() != 100-len(killed) {
		t.Fatal("Kill bookkeeping wrong")
	}
	e.Revive(killed)
	if e.Network().OnlineCount() != 100 {
		t.Fatalf("online after revive = %d, want 100", e.Network().OnlineCount())
	}
	// Revived nodes keep their personal networks and answer queries again.
	for _, id := range killed[:3] {
		if e.Node(id).PersonalNetwork().Len() == 0 {
			t.Fatalf("revived node %d lost her personal network", id)
		}
		q, ok := trace.QueryFor(w.ds, id, 5)
		if !ok {
			continue
		}
		if qr := e.IssueQuery(q); qr == nil {
			t.Fatalf("revived node %d cannot query", id)
		}
	}
	e.RunEager(60)
	if !e.AllQueriesDone() {
		t.Fatal("queries from revived nodes did not complete")
	}
}

func TestReviveHealsQueriesAfterChurn(t *testing.T) {
	// A query stalled by departures completes after the departed nodes
	// return: no permanent protocol state is lost.
	cfg := smallCfg()
	w := newWorld(t, 120, cfg, 31)
	e := New(w.ds, cfg)
	e.SeedIdealNetworks(w.ideal)
	q, _ := trace.QueryFor(w.ds, 0, 9)
	qr := e.IssueQuery(q)
	killed := e.Kill(0.6)
	e.RunEager(15)
	stalledRecall := topk.Recall(qr.Results(), exactReference(e, q, cfg.K))
	e.Revive(killed)
	e.RunEager(60)
	if !qr.Done() {
		t.Fatal("query did not complete after revival")
	}
	finalRecall := topk.Recall(qr.Results(), exactReference(e, q, cfg.K))
	if finalRecall != 1 {
		t.Fatalf("final recall = %f, want 1 after revival", finalRecall)
	}
	if finalRecall < stalledRecall {
		t.Fatal("recall regressed after revival")
	}
}

func TestSeedExplicitNetworks(t *testing.T) {
	w := newWorld(t, 80, smallCfg(), 32)
	e := New(w.ds, w.cfg)
	// Declared friend lists: a ring of 10 friends each.
	contacts := make([][]tagging.UserID, 80)
	for u := 0; u < 80; u++ {
		for d := 1; d <= 10; d++ {
			contacts[u] = append(contacts[u], tagging.UserID((u+d)%80))
		}
	}
	e.SeedExplicitNetworks(contacts)
	for u := 0; u < 80; u++ {
		pn := e.Node(tagging.UserID(u)).PersonalNetwork()
		if pn.Len() != 10 {
			t.Fatalf("user %d has %d neighbours, want 10 declared friends", u, pn.Len())
		}
		for _, id := range pn.Members() {
			found := false
			for _, c := range contacts[u] {
				if c == id {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("user %d has undeclared neighbour %d", u, id)
			}
		}
		if len(pn.StoredEntries()) != min(w.cfg.C, 10) {
			t.Fatalf("user %d stores %d profiles, want %d", u, len(pn.StoredEntries()), min(w.cfg.C, 10))
		}
	}
}

func TestExplicitNetworksAnswerQueries(t *testing.T) {
	// §4: "only the eager mode of P3Q would suffice" — queries over
	// explicit networks complete and match the exact evaluation over the
	// declared contacts.
	cfg := smallCfg()
	cfg.StaticNetworks = true
	w := newWorld(t, 100, cfg, 33)
	e := New(w.ds, cfg)
	contacts := make([][]tagging.UserID, 100)
	for u := 0; u < 100; u++ {
		for d := 1; d <= 15; d++ {
			contacts[u] = append(contacts[u], tagging.UserID((u*3+d*7)%100))
		}
	}
	e.SeedExplicitNetworks(contacts)
	q, _ := trace.QueryFor(w.ds, 4, 2)
	qr := e.IssueQuery(q)
	e.RunEager(60)
	if !qr.Done() {
		t.Fatal("query over explicit network did not complete")
	}
	want := exactReference(e, q, cfg.K)
	got := qr.Results()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("explicit-network results diverge: got %v want %v", got, want)
		}
	}
}

func TestSeedExplicitNetworksSelfAndDuplicates(t *testing.T) {
	w := newWorld(t, 30, smallCfg(), 34)
	e := New(w.ds, w.cfg)
	contacts := make([][]tagging.UserID, 30)
	contacts[0] = []tagging.UserID{0, 1, 1, 2} // self + duplicate
	e.SeedExplicitNetworks(contacts)
	pn := e.Node(0).PersonalNetwork()
	if pn.Len() != 2 {
		t.Fatalf("user 0 has %d neighbours, want 2 (self and duplicate dropped)", pn.Len())
	}
	if pn.Contains(0) {
		t.Fatal("self admitted as friend")
	}
}

func TestSeedExplicitNetworksLengthPanics(t *testing.T) {
	w := newWorld(t, 20, smallCfg(), 35)
	e := New(w.ds, w.cfg)
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched contact list length did not panic")
		}
	}()
	e.SeedExplicitNetworks(make([][]tagging.UserID, 3))
}

func TestKnownProfilesContents(t *testing.T) {
	w := newWorld(t, 60, smallCfg(), 36)
	e := New(w.ds, w.cfg)
	e.SeedIdealNetworks(w.ideal)
	n := e.Node(5)
	known := n.KnownProfiles()
	if len(known) != 1+len(n.PersonalNetwork().StoredEntries()) {
		t.Fatalf("KnownProfiles returned %d snapshots", len(known))
	}
	if known[0].Owner() != 5 {
		t.Fatal("own profile not first in KnownProfiles")
	}
}

func TestStaticNetworksMembershipFrozen(t *testing.T) {
	cfg := smallCfg()
	cfg.StaticNetworks = true
	w := newWorld(t, 80, cfg, 37)
	e := New(w.ds, cfg)
	contacts := make([][]tagging.UserID, 80)
	for u := 0; u < 80; u++ {
		for d := 1; d <= 5; d++ {
			contacts[u] = append(contacts[u], tagging.UserID((u+d)%80))
		}
	}
	e.SeedExplicitNetworks(contacts)
	before := make(map[tagging.UserID][]tagging.UserID)
	for u := 0; u < 80; u++ {
		before[tagging.UserID(u)] = e.Node(tagging.UserID(u)).PersonalNetwork().Members()
	}
	// Heavy gossip: lazy cycles plus a full query load.
	e.RunLazy(10)
	for _, q := range trace.GenerateQueries(w.ds, 3)[:30] {
		e.IssueQuery(q)
	}
	e.RunEager(40)
	for u := 0; u < 80; u++ {
		got := e.Node(tagging.UserID(u)).PersonalNetwork().Members()
		want := before[tagging.UserID(u)]
		if len(got) != len(want) {
			t.Fatalf("user %d: membership size changed %d -> %d", u, len(want), len(got))
		}
		wantSet := make(map[tagging.UserID]bool, len(want))
		for _, id := range want {
			wantSet[id] = true
		}
		for _, id := range got {
			if !wantSet[id] {
				t.Fatalf("user %d: undeclared member %d joined a static network", u, id)
			}
		}
	}
}

func TestStaticNetworksStillRefreshReplicas(t *testing.T) {
	// Frozen membership must not freeze freshness: changed profiles of
	// declared friends still propagate.
	cfg := smallCfg()
	cfg.StaticNetworks = true
	w := newWorld(t, 60, cfg, 38)
	e := New(w.ds, cfg)
	contacts := make([][]tagging.UserID, 60)
	for u := 0; u < 60; u++ {
		for d := 1; d <= 8; d++ {
			contacts[u] = append(contacts[u], tagging.UserID((u+d)%60))
		}
	}
	e.SeedExplicitNetworks(contacts)
	changes := trace.GenerateChanges(w.ds, trace.ChangeParams{
		FracUsers: 0.5, MeanNew: 6, SigmaNew: 0.5, MaxNew: 20, Seed: 8,
	})
	changedVersion := make(map[tagging.UserID]int)
	for _, c := range changes {
		c.Apply(w.ds)
		changedVersion[c.User] = w.ds.Profiles[c.User].Version()
	}
	e.RunLazy(40)
	refreshed, subject := 0, 0
	for u := 0; u < 60; u++ {
		for _, entry := range e.Node(tagging.UserID(u)).PersonalNetwork().StoredEntries() {
			target, ok := changedVersion[entry.ID]
			if !ok {
				continue
			}
			subject++
			if int(entry.Stored) >= target {
				refreshed++
			}
		}
	}
	if subject == 0 {
		t.Fatal("no replicas subject to change")
	}
	if frac := float64(refreshed) / float64(subject); frac < 0.5 {
		t.Fatalf("only %.0f%% of replicas refreshed under static networks", frac*100)
	}
}

func TestEngineStats(t *testing.T) {
	w := newWorld(t, 60, smallCfg(), 80)
	e := New(w.ds, w.cfg)
	e.SeedIdealNetworks(w.ideal)
	q, _ := trace.QueryFor(w.ds, 1, 1)
	e.IssueQuery(q)
	e.RunEager(40)
	e.Kill(0.1)
	st := e.Stats()
	if st.Users != 60 {
		t.Fatalf("stats users = %d", st.Users)
	}
	if st.Online != 54 {
		t.Fatalf("stats online = %d, want 54 after killing 10%%", st.Online)
	}
	if st.QueriesIssued != 1 || st.QueriesDone != 1 {
		t.Fatalf("stats queries = %d/%d", st.QueriesDone, st.QueriesIssued)
	}
	if st.MeanNeighbours <= 0 || st.MeanStored <= 0 || st.StoredActions <= 0 {
		t.Fatalf("stats fill empty: %+v", st)
	}
	if st.MeanStored > float64(w.cfg.C) {
		t.Fatalf("mean stored %f exceeds c=%d", st.MeanStored, w.cfg.C)
	}
	if st.Traffic.TotalBytes() == 0 {
		t.Fatal("stats traffic empty after a query")
	}
	if st.String() == "" {
		t.Fatal("stats render empty")
	}
}
