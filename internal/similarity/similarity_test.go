package similarity

import (
	"testing"

	"p3q/internal/tagging"
	"p3q/internal/trace"
)

func testDataset(seed uint64) *trace.Dataset {
	p := trace.DefaultGenParams(120)
	p.MeanItems = 20
	p.Seed = seed
	return trace.Generate(p)
}

func TestIndexMatchesDirectScore(t *testing.T) {
	d := testDataset(1)
	ix := Build(d)
	for u := 0; u < 20; u++ {
		scores := ix.CoScores(d.Profiles[u])
		for v := 0; v < d.Users(); v++ {
			if v == u {
				continue
			}
			want := Score(d.Profiles[u], d.Profiles[v])
			if got := scores[tagging.UserID(v)]; got != want {
				t.Fatalf("score(%d,%d) via index = %d, direct = %d", u, v, got, want)
			}
		}
	}
}

func TestCoScoresExcludesSelf(t *testing.T) {
	d := testDataset(2)
	ix := Build(d)
	for u := 0; u < d.Users(); u++ {
		if _, ok := ix.CoScores(d.Profiles[u])[tagging.UserID(u)]; ok {
			t.Fatalf("user %d scored against herself", u)
		}
	}
}

// TestIdealNetworksRightSized: a network is kept for the whole run, so it
// must not pin a backing array sized to every co-scored user.
func TestIdealNetworksRightSized(t *testing.T) {
	d := testDataset(4)
	const s = 5
	ix := Build(d)
	nets := IdealNetworksWithIndex(d, ix, s)
	checked := 0
	for u := range nets {
		if len(ix.CoScores(d.Profiles[u])) <= s {
			continue
		}
		checked++
		if len(nets[u]) != s || cap(nets[u]) > s {
			t.Fatalf("user %d: network len %d cap %d, want len and cap %d", u, len(nets[u]), cap(nets[u]), s)
		}
	}
	if checked == 0 {
		t.Fatal("no user has more than s co-scored users; the test checks nothing")
	}
}

func TestTopNeighboursOrdering(t *testing.T) {
	d := testDataset(3)
	ix := Build(d)
	ns := ix.TopNeighbours(d.Profiles[0], 50)
	for i := 1; i < len(ns); i++ {
		prev, cur := ns[i-1], ns[i]
		if cur.Score > prev.Score {
			t.Fatal("neighbours not sorted by descending score")
		}
		if cur.Score == prev.Score && cur.ID < prev.ID {
			t.Fatal("tie-break not ascending by ID")
		}
	}
	for _, n := range ns {
		if n.Score <= 0 {
			t.Fatalf("non-positive score %d in top neighbours", n.Score)
		}
	}
}

func TestTopNeighboursTruncates(t *testing.T) {
	d := testDataset(4)
	ix := Build(d)
	ns := ix.TopNeighbours(d.Profiles[0], 5)
	if len(ns) > 5 {
		t.Fatalf("TopNeighbours(5) returned %d entries", len(ns))
	}
}

func TestIdealNetworksDeterministic(t *testing.T) {
	d := testDataset(5)
	a := IdealNetworks(d, 20)
	b := IdealNetworks(d, 20)
	for u := range a {
		if len(a[u]) != len(b[u]) {
			t.Fatalf("user %d: ideal network sizes differ", u)
		}
		for i := range a[u] {
			if a[u][i] != b[u][i] {
				t.Fatalf("user %d entry %d: %v vs %v (parallel nondeterminism)", u, i, a[u][i], b[u][i])
			}
		}
	}
}

func TestIdealNetworksMatchPerUser(t *testing.T) {
	d := testDataset(6)
	ix := Build(d)
	nets := IdealNetworksWithIndex(d, ix, 15)
	for _, u := range []int{0, 7, 42} {
		want := ix.TopNeighbours(d.Profiles[u], 15)
		got := nets[u]
		if len(got) != len(want) {
			t.Fatalf("user %d: %d vs %d neighbours", u, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("user %d neighbour %d: %v vs %v", u, i, got[i], want[i])
			}
		}
	}
}

func TestIdealNetworkContainsBestPeer(t *testing.T) {
	// Brute-force the single best neighbour for a few users and verify it
	// leads the ideal network.
	d := testDataset(7)
	nets := IdealNetworks(d, 10)
	for _, u := range []int{0, 3, 99} {
		bestScore := 0
		for v := 0; v < d.Users(); v++ {
			if v == u {
				continue
			}
			if s := Score(d.Profiles[u], d.Profiles[v]); s > bestScore {
				bestScore = s
			}
		}
		if bestScore == 0 {
			continue // isolated user: ideal network legitimately empty
		}
		if len(nets[u]) == 0 || nets[u][0].Score != bestScore {
			t.Fatalf("user %d: ideal network head score %v, brute-force best %d",
				u, nets[u], bestScore)
		}
	}
}

func TestUsersFor(t *testing.T) {
	d := testDataset(8)
	ix := Build(d)
	p := d.Profiles[0]
	a := p.Actions()[0]
	users := ix.byAction[a.Key()]
	found := false
	for _, u := range users {
		if u == 0 {
			found = true
		}
		if !d.Profiles[u].Has(a.Item, a.Tag) {
			t.Fatalf("index lists user %d for an action she never performed", u)
		}
	}
	if !found {
		t.Fatal("index misses the action's own performer")
	}
}

func TestScoreSymmetry(t *testing.T) {
	d := testDataset(9)
	for u := 0; u < 10; u++ {
		for v := u + 1; v < 10; v++ {
			if Score(d.Profiles[u], d.Profiles[v]) != Score(d.Profiles[v], d.Profiles[u]) {
				t.Fatalf("score(%d,%d) asymmetric", u, v)
			}
		}
	}
}

func TestIdealNetworksAfterChanges(t *testing.T) {
	// Applying a change-set must be reflected when networks are recomputed:
	// scores can only grow (profiles are append-only).
	d := testDataset(10)
	before := IdealNetworks(d, 10)
	changes := trace.GenerateChanges(d, trace.ChangeParams{
		FracUsers: 0.3, MeanNew: 10, SigmaNew: 0.6, MaxNew: 40, Seed: 11,
	})
	trace.ApplyChanges(d, changes)
	after := IdealNetworks(d, 10)
	grew := false
	for u := range after {
		if len(after[u]) > 0 && len(before[u]) > 0 && after[u][0].Score > before[u][0].Score {
			grew = true
		}
		if len(after[u]) < len(before[u]) {
			t.Fatalf("user %d lost neighbours after additive changes", u)
		}
	}
	if !grew {
		t.Fatal("no score grew after applying a substantial change-set")
	}
}

// Score computes the similarity between two live profiles directly, without
// an index. It is the reference implementation the index is tested against.
func Score(a, b *tagging.Profile) int {
	return a.CommonScore(b.Snapshot())
}
