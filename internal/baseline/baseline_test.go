package baseline

import (
	"testing"

	"p3q/internal/similarity"
	"p3q/internal/tagging"
	"p3q/internal/topk"
	"p3q/internal/trace"
)

func testDataset(seed uint64) *trace.Dataset {
	p := trace.DefaultGenParams(120)
	p.MeanItems = 20
	p.Seed = seed
	return trace.Generate(p)
}

func TestCentralizedTopKMatchesDirectExact(t *testing.T) {
	ds := testDataset(1)
	c := NewCentralized(ds, 15, 10)
	q, ok := trace.QueryFor(ds, 3, 7)
	if !ok {
		t.Fatal("no query")
	}
	got := c.TopK(q)
	// Re-derive directly.
	snaps := []tagging.Snapshot{ds.Profiles[3].Snapshot()}
	for _, nb := range c.Networks()[3] {
		snaps = append(snaps, ds.Profiles[nb.ID].Snapshot())
	}
	want := topk.Exact(snaps, topk.NewTagSet(q.Tags), 10)
	if len(got) != len(want) {
		t.Fatalf("got %d entries, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("entry %d: %v vs %v", i, got[i], want[i])
		}
	}
}

func TestCentralizedQueryItemRanksWell(t *testing.T) {
	// The query is built from an item the querier tagged; that item scores
	// the full tag count from the querier alone, so it must appear in the
	// results of a sane personalized baseline for most users.
	ds := testDataset(2)
	c := NewCentralized(ds, 20, 10)
	queries := trace.GenerateQueries(ds, 5)
	hits := 0
	for _, q := range queries {
		for _, e := range c.TopK(q) {
			if e.Item == q.Item {
				hits++
				break
			}
		}
	}
	if frac := float64(hits) / float64(len(queries)); frac < 0.8 {
		t.Fatalf("query source item in top-10 for only %.0f%% of queries", frac*100)
	}
}

func TestCentralizedWithNetsSharing(t *testing.T) {
	ds := testDataset(3)
	nets := similarity.IdealNetworks(ds, 10)
	c := NewCentralizedWithNets(ds, nets, 5)
	if c.K() != 5 {
		t.Fatalf("K = %d", c.K())
	}
	q, _ := trace.QueryFor(ds, 0, 1)
	if len(c.TopK(q)) > 5 {
		t.Fatal("TopK returned more than k entries")
	}
}

func TestTopKOverNetworkCustomMembers(t *testing.T) {
	ds := testDataset(4)
	c := NewCentralized(ds, 10, 10)
	q, _ := trace.QueryFor(ds, 1, 2)
	// Over an empty network the result comes from the querier alone; the
	// query's source item must rank first (it matches every query tag).
	got := c.TopKOverNetwork(q, nil)
	if len(got) == 0 || got[0].Item != q.Item {
		t.Fatalf("solo top-k head = %v, want the query source item %d", got, q.Item)
	}
	if got[0].Score != len(q.Tags) {
		t.Fatalf("solo top score = %d, want %d (all query tags)", got[0].Score, len(q.Tags))
	}
}

func TestFullReplicationStorage(t *testing.T) {
	ds := testDataset(5)
	nets := similarity.IdealNetworks(ds, 20)
	f := NewFullReplication(ds, nets)
	u := tagging.UserID(0)
	want := 0
	for _, nb := range nets[0] {
		want += ds.Profiles[nb.ID].Len()
	}
	if got := f.StorageActions(u); got != want {
		t.Fatalf("StorageActions = %d, want %d", got, want)
	}
}

func TestFullReplicationTopCSubset(t *testing.T) {
	ds := testDataset(6)
	nets := similarity.IdealNetworks(ds, 20)
	f := NewFullReplication(ds, nets)
	for _, u := range []tagging.UserID{0, 5, 50} {
		all := f.StorageActions(u)
		top5 := f.StorageActionsTopC(u, 5)
		if top5 > all {
			t.Fatalf("user %d: top-5 storage %d exceeds full %d", u, top5, all)
		}
		if f.StorageActionsTopC(u, 1000) != all {
			t.Fatal("over-large c should equal full storage")
		}
	}
}

func TestP3QFinalResultsMatchCentralizedReference(t *testing.T) {
	// End-to-end contract: the decentralized protocol's completed results
	// equal the centralized baseline when P3Q runs over the ideal networks
	// used by the baseline. (The core package tests the protocol engine;
	// this test pins the baseline's role as the recall reference.)
	ds := testDataset(7)
	nets := similarity.IdealNetworks(ds, 15)
	c := NewCentralizedWithNets(ds, nets, 10)
	q, _ := trace.QueryFor(ds, 2, 3)
	ref := c.TopK(q)
	if topk.Recall(ref, ref) != 1 {
		t.Fatal("reference recall against itself != 1")
	}
}
