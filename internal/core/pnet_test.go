package core

import (
	"bytes"
	"runtime"
	"testing"
	"unsafe"

	"p3q/internal/bloom"
	"p3q/internal/idtab"
	"p3q/internal/tagging"
)

func mkDigest(owner tagging.UserID, version int) *tagging.Digest {
	p := tagging.NewProfile(owner)
	for i := 0; i < version; i++ {
		p.Add(tagging.ItemID(i), 0)
	}
	return tagging.NewDigest(p.Snapshot(), 256, 3)
}

func TestPnetUpsertAndRanking(t *testing.T) {
	pn := NewPersonalNetwork(0, 5, 2)
	pn.Upsert(1, 3, mkDigest(1, 1))
	pn.Upsert(2, 7, mkDigest(2, 1))
	pn.Upsert(3, 3, mkDigest(3, 1))
	r := pn.Ranking()
	if len(r) != 3 {
		t.Fatalf("len = %d, want 3", len(r))
	}
	if r[0].ID != 2 {
		t.Fatalf("head = %d, want 2 (highest score)", r[0].ID)
	}
	if r[1].ID != 1 || r[2].ID != 3 {
		t.Fatal("tie between 1 and 3 not broken by ascending ID")
	}
}

func TestPnetUpsertUpdatesExisting(t *testing.T) {
	pn := NewPersonalNetwork(0, 5, 2)
	pn.Upsert(1, 3, mkDigest(1, 1))
	pn.Upsert(1, 9, mkDigest(1, 2))
	if pn.Len() != 1 {
		t.Fatalf("len = %d, want 1", pn.Len())
	}
	e := pn.Entry(1)
	if e.Score != 9 || e.Digest.Version != 2 {
		t.Fatalf("entry = score %d version %d, want 9/2", e.Score, e.Digest.Version)
	}
}

func TestPnetUpsertPanics(t *testing.T) {
	pn := NewPersonalNetwork(7, 5, 2)
	for _, tc := range []struct {
		id    tagging.UserID
		score int
	}{{1, 0}, {1, -1}, {7, 5}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Upsert(%d, %d) did not panic", tc.id, tc.score)
				}
			}()
			pn.Upsert(tc.id, tc.score, mkDigest(tc.id, 1))
		}()
	}
}

func TestPnetRebalanceEvictsBeyondS(t *testing.T) {
	pn := NewPersonalNetwork(0, 3, 1)
	for i := 1; i <= 5; i++ {
		pn.Upsert(tagging.UserID(i), i, mkDigest(tagging.UserID(i), 1))
	}
	pn.Rebalance()
	if pn.Len() != 3 {
		t.Fatalf("len after rebalance = %d, want 3", pn.Len())
	}
	if pn.Contains(1) || pn.Contains(2) {
		t.Fatal("lowest-scored entries not evicted")
	}
	if !pn.Contains(5) || !pn.Contains(4) || !pn.Contains(3) {
		t.Fatal("best entries evicted")
	}
}

func TestPnetRebalanceNeedStore(t *testing.T) {
	pn := NewPersonalNetwork(0, 5, 2)
	pn.Upsert(1, 10, mkDigest(1, 1))
	pn.Upsert(2, 5, mkDigest(2, 1))
	pn.Upsert(3, 1, mkDigest(3, 1))
	need := pn.Rebalance()
	if len(need) != 2 {
		t.Fatalf("needStore = %d entries, want 2 (top-c lacking snapshots)", len(need))
	}
	if need[0].ID != 1 || need[1].ID != 2 {
		t.Fatalf("needStore IDs = %d,%d want 1,2", need[0].ID, need[1].ID)
	}
}

func TestPnetRebalanceDropsStorageOutsideTopC(t *testing.T) {
	pn := NewPersonalNetwork(0, 5, 1)
	p1 := tagging.NewProfile(1)
	p1.Add(1, 1)
	e1 := pn.Upsert(1, 5, mkDigest(1, 1))
	e1.Stored = int32(p1.Version())
	pn.Rebalance()
	if pn.Entry(1).Stored == noReplica {
		t.Fatal("top-c entry lost its snapshot")
	}
	// A better neighbour pushes 1 out of the top-1.
	pn.Upsert(2, 9, mkDigest(2, 1))
	pn.Rebalance()
	if pn.Entry(1).Stored != noReplica {
		t.Fatal("entry pushed out of top-c kept its stored profile")
	}
}

func TestPnetStoredFreshDetectsStale(t *testing.T) {
	pn := NewPersonalNetwork(0, 5, 2)
	p1 := tagging.NewProfile(1)
	p1.Add(1, 1)
	e := pn.Upsert(1, 5, mkDigest(1, 1))
	e.Stored = int32(p1.Version())
	if !e.StoredFresh() {
		t.Fatal("fresh snapshot reported stale")
	}
	// A newer digest arrives: the stored version falls behind. Re-fetch
	// the entry — Upsert may reorder the flat ranking array, so pointers
	// into it are only valid until the next mutation.
	pn.Upsert(1, 6, mkDigest(1, 3))
	if e = pn.Entry(1); e.StoredFresh() {
		t.Fatal("stale snapshot reported fresh")
	}
	need := pn.Rebalance()
	if len(need) != 1 || need[0].ID != 1 {
		t.Fatalf("stale stored entry not scheduled for re-fetch: %v", need)
	}
}

func TestPnetUnstored(t *testing.T) {
	pn := NewPersonalNetwork(0, 5, 1)
	p1 := tagging.NewProfile(1)
	p1.Add(1, 1)
	pn.Upsert(1, 9, mkDigest(1, 1)).Stored = int32(p1.Version())
	pn.Upsert(2, 5, mkDigest(2, 1))
	pn.Upsert(3, 3, mkDigest(3, 1))
	un := pn.Unstored()
	if len(un) != 2 || un[0] != 2 || un[1] != 3 {
		t.Fatalf("Unstored = %v, want [2 3] in rank order", un)
	}
}

func TestPnetTouchAging(t *testing.T) {
	pn := NewPersonalNetwork(0, 5, 2)
	pn.Upsert(1, 5, mkDigest(1, 1))
	pn.Upsert(2, 5, mkDigest(2, 1))
	pn.Upsert(3, 5, mkDigest(3, 1))
	pn.Touch(1)
	if pn.age(pn.Entry(1)) != 0 {
		t.Fatal("touched partner age != 0")
	}
	if pn.age(pn.Entry(2)) != 1 || pn.age(pn.Entry(3)) != 1 {
		t.Fatal("other entries did not age by 1")
	}
	pn.Touch(2)
	oldest, last := pn.appendAgeGroup(nil, 0)
	if len(oldest) != 1 || pn.ranking[oldest[0]].ID != 3 || pn.age(&pn.ranking[oldest[0]]) != 2 {
		t.Fatalf("oldest group = %v, want only neighbour 3 (age 2)", oldest)
	}
	if next, _ := pn.appendAgeGroup(nil, last+1); len(next) != 1 || pn.ranking[next[0]].ID != 1 {
		t.Fatalf("second-oldest group = %v, want only neighbour 1 (age 1)", next)
	}
}

func TestPnetResetTimestamp(t *testing.T) {
	pn := NewPersonalNetwork(0, 5, 2)
	pn.Upsert(1, 5, mkDigest(1, 1))
	pn.Upsert(2, 5, mkDigest(2, 1))
	pn.Touch(1) // ages 2
	pn.ResetTimestamp(2)
	if pn.age(pn.Entry(2)) != 0 {
		t.Fatal("ResetTimestamp did not zero the entry")
	}
	if pn.age(pn.Entry(1)) != 0 {
		t.Fatal("ResetTimestamp aged another entry")
	}
	pn.ResetTimestamp(99) // absent: no-op
}

func TestPnetMembersRankOrder(t *testing.T) {
	pn := NewPersonalNetwork(0, 5, 2)
	pn.Upsert(4, 1, mkDigest(4, 1))
	pn.Upsert(5, 9, mkDigest(5, 1))
	m := pn.Members()
	if len(m) != 2 || m[0] != 5 || m[1] != 4 {
		t.Fatalf("Members = %v, want [5 4]", m)
	}
}

func TestPnetCapsCAtS(t *testing.T) {
	pn := NewPersonalNetwork(0, 3, 10)
	if pn.C() != 3 {
		t.Fatalf("C = %d, want clamped to S=3", pn.C())
	}
}

func TestConfigSanitize(t *testing.T) {
	cfg := Config{}.sanitize(10)
	if cfg.S < 1 || cfg.R < 1 || cfg.K < 1 {
		t.Fatalf("sanitize left invalid values: %+v", cfg)
	}
	if cfg.BloomBits < 64 || cfg.BloomHashes < 1 {
		t.Fatalf("sanitize left invalid Bloom geometry: %+v", cfg)
	}
	cfg2 := Config{S: 5, C: 50, Alpha: 2}.sanitize(10)
	if cfg2.C != 5 {
		t.Fatalf("C = %d, want clamped to S", cfg2.C)
	}
	if cfg2.Alpha != 1 {
		t.Fatalf("Alpha = %f, want clamped to 1", cfg2.Alpha)
	}
}

func TestConfigCapacityOf(t *testing.T) {
	cfg := DefaultConfig()
	cfg.C = 7
	if cfg.capacityOf(3) != 7 {
		t.Fatal("uniform capacity not returned")
	}
	cfg.CAssign = []int{1, 2, 3}
	cfg.S = 2
	if cfg.capacityOf(2) != 2 {
		t.Fatalf("per-user capacity = %d, want clamped to S=2", cfg.capacityOf(2))
	}
	if cfg.capacityOf(0) != 1 {
		t.Fatalf("per-user capacity = %d, want 1", cfg.capacityOf(0))
	}
}

func TestConfigCAssignLengthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched CAssign length did not panic")
		}
	}()
	Config{CAssign: []int{1, 2}}.sanitize(10)
}

func TestBloomDefaultGeometryInConfig(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.BloomBits != bloom.DefaultBits || cfg.BloomHashes != bloom.DefaultHashes {
		t.Fatalf("default Bloom geometry = %d/%d", cfg.BloomBits, cfg.BloomHashes)
	}
}

// TestEntryLayout pins the personal network's memory layout. A neighbour
// entry is 24 bytes; the ranking keeps no append slack once seeded or
// restored; and at s = 1000 SeedIdealNetworks retains at most 64 B of heap
// per neighbour: the entry, plus the by-owner index and the evaluated memo
// (~42 B; ~79 B while an entry was 56 B and the ranking grew by append).
func TestEntryLayout(t *testing.T) {
	if got := unsafe.Sizeof(Entry{}); got != 24 {
		t.Errorf("Entry is %d bytes, want 24", got)
	}
	requireNoSlack := func(when string, e *Engine) {
		t.Helper()
		for u, n := range e.nodes {
			if r := n.pnet.ranking; cap(r) != len(r) {
				t.Errorf("%s: node %d holds %d neighbours in a ranking of capacity %d", when, u, len(r), cap(r))
				return
			}
		}
	}
	raw, cfg := smallSnapshot(t)
	restored, err := Restore(bytes.NewReader(raw), nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	requireNoSlack("after Restore", restored)

	const users, perNeighbour = 2000, 64
	cfg = smallCfg()
	cfg.S = 1000
	w := newWorld(t, users, cfg, 5)
	e := New(w.ds, cfg)
	h0 := liveHeap()
	e.SeedIdealNetworks(w.ideal)
	h1 := liveHeap()
	requireNoSlack("after SeedIdealNetworks", e)
	neighbours := 0
	for _, n := range e.nodes {
		neighbours += n.pnet.Len()
		n.evaluated = idtab.Table{}
	}
	h2 := liveHeap()
	runtime.KeepAlive(e)
	got := float64(h1-h0) / float64(neighbours)
	t.Logf("s = %d: %.1f neighbours per node, %.1f B of heap per neighbour, evaluated memo %.0f B per node",
		cfg.S, float64(neighbours)/users, got, float64(h1-h2)/users)
	if got > perNeighbour {
		t.Errorf("SeedIdealNetworks retains %.1f B of heap per neighbour, want at most %d", got, perNeighbour)
	}
}
