package tagging

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"p3q/internal/bloom"
)

// This file pins the columnar profile against the definitions it replaced,
// kept here as test-only oracles: a plain-map model of Profile, and the
// log-scan ActionsOnItems plus a Has loop for the step-2 kernel.

// ActionsOnItems is the original step-2 payload: the snapshot's actions
// restricted to the given items, by a scan of the log prefix.
func (s Snapshot) ActionsOnItems(items []ItemID) []Action {
	var out []Action
	for _, a := range s.p.log[:s.n] {
		if slices.Contains(items, a.Item) {
			out = append(out, a)
		}
	}
	return out
}

// modelProfile is the map-based profile the columns replaced.
type modelProfile struct {
	log   []Action
	index map[Action]int // action -> log position
}

func (m *modelProfile) add(a Action) bool {
	if _, dup := m.index[a]; dup {
		return false
	}
	if m.index == nil {
		m.index = map[Action]int{}
	}
	m.index[a] = len(m.log)
	m.log = append(m.log, a)
	return true
}

// has is Snapshot.Has on the first n actions.
func (m *modelProfile) has(a Action, n int) bool {
	pos, ok := m.index[a]
	return ok && pos < n
}

// items is Snapshot.Items on the first n actions.
func (m *modelProfile) items(n int) []ItemID {
	var out []ItemID
	for _, a := range m.log[:n] {
		if !slices.Contains(out, a.Item) {
			out = append(out, a.Item)
		}
	}
	slices.Sort(out)
	return out
}

// randomPair grows a profile and its model with the same random actions,
// duplicates included.
func randomPair(rng *rand.Rand, owner UserID, adds, items, tags int) (*Profile, *modelProfile) {
	p, m := NewProfile(owner), &modelProfile{}
	for i := 0; i < adds; i++ {
		a := Action{Item: ItemID(rng.Intn(items)), Tag: TagID(rng.Intn(tags))}
		if got, want := p.Add(a.Item, a.Tag), m.add(a); got != want {
			panic("Add disagrees with the model on duplicate rejection")
		}
	}
	return p, m
}

func TestProfileMatchesMapModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		items, tags := 1+rng.Intn(30), 1+rng.Intn(6)
		p, m := randomPair(rng, 0, rng.Intn(120), items, tags)
		if p.Len() != len(m.log) || !slices.Equal(p.Actions(), m.log) {
			t.Fatalf("trial %d: log differs from the model", trial)
		}
		if !slices.Equal(p.Items(), m.items(len(m.log))) || p.NumItems() != len(p.Items()) {
			t.Fatalf("trial %d: Items = %v, model %v", trial, p.Items(), m.items(len(m.log)))
		}
		// Every prefix, the empty and the full one included.
		for _, n := range []int{0, rng.Intn(p.Len() + 1), p.Len()} {
			s := p.SnapshotAt(n)
			want := m.items(n)
			if got := s.Items(); !slices.Equal(got, want) {
				t.Fatalf("trial %d: SnapshotAt(%d).Items = %v, model %v", trial, n, got, want)
			}
			for it := ItemID(0); int(it) < items; it++ {
				if got := s.HasItem(it); got != slices.Contains(want, it) {
					t.Fatalf("trial %d: SnapshotAt(%d).HasItem(%d) = %v", trial, n, it, got)
				}
				for tg := TagID(0); int(tg) < tags; tg++ {
					if got, want := s.Has(it, tg), m.has(Action{it, tg}, n); got != want {
						t.Fatalf("trial %d: SnapshotAt(%d).Has(%d, %d) = %v, model %v", trial, n, it, tg, got, want)
					}
				}
			}
		}
		for it := ItemID(0); int(it) < items; it++ {
			if got := p.HasItem(it); got != slices.Contains(p.Items(), it) {
				t.Fatalf("trial %d: HasItem(%d) = %v", trial, it, got)
			}
			for tg := TagID(0); int(tg) < tags; tg++ {
				if got, want := p.Has(it, tg), m.has(Action{it, tg}, len(m.log)); got != want {
					t.Fatalf("trial %d: Has(%d, %d) = %v, model %v", trial, it, tg, got, want)
				}
			}
		}
	}
}

func TestCommonScoreMatchesMapModel(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 300; trial++ {
		items, tags := 1+rng.Intn(25), 1+rng.Intn(5)
		// Unequal lengths exercise the galloping on both sides.
		p, _ := randomPair(rng, 0, rng.Intn(200), items, tags)
		q, qm := randomPair(rng, 1, rng.Intn(20), items, tags)
		for _, n := range []int{0, rng.Intn(q.Len() + 1), q.Len()} {
			want := 0
			for _, a := range p.Actions() {
				if qm.has(a, n) {
					want++
				}
			}
			if got := p.CommonScore(q.SnapshotAt(n)); got != want {
				t.Fatalf("trial %d: CommonScore vs SnapshotAt(%d) = %d, model %d", trial, n, got, want)
			}
		}
		if pq, qp := p.CommonScore(q.Snapshot()), q.CommonScore(p.Snapshot()); pq != qp {
			t.Fatalf("trial %d: CommonScore not symmetric: %d vs %d", trial, pq, qp)
		}
	}
}

// checkScoreOnItems compares the kernel with the old two-step definition.
func checkScoreOnItems(t *testing.T, s Snapshot, q *Profile, items []ItemID) {
	t.Helper()
	actions := s.ActionsOnItems(items)
	wantScore := 0
	for _, a := range actions {
		if q.Has(a.Item, a.Tag) {
			wantScore++
		}
	}
	received, score := s.ScoreOnItems(q, items)
	if received != len(actions) || score != wantScore {
		t.Fatalf("ScoreOnItems(%v) on %d/%d actions = (%d, %d), oracle (%d, %d)",
			items, s.Len(), s.p.Len(), received, score, len(actions), wantScore)
	}
}

func TestScoreOnItemsMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 300; trial++ {
		items, tags := 1+rng.Intn(40), 1+rng.Intn(6)
		owner, _ := randomPair(rng, 0, rng.Intn(150), items, tags)
		q, _ := randomPair(rng, 1, rng.Intn(150), items, tags)
		// The common-item estimate as the planner builds it: q's items the
		// owner's digest may hold. Small filters make false positives —
		// items absent from the snapshot — frequent.
		for _, n := range []int{0, rng.Intn(owner.Len() + 1), owner.Len()} {
			s := owner.SnapshotAt(n)
			d := NewDigest(s, 64, 1+rng.Intn(3))
			common := d.AppendCommonItems(nil, q)
			if !slices.IsSorted(common) {
				t.Fatalf("trial %d: AppendCommonItems not ascending: %v", trial, common)
			}
			checkScoreOnItems(t, s, q, common)
			// And against a stale digest/snapshot pairing: items of the full
			// profile that the prefix does not hold yet.
			checkScoreOnItems(t, s, q, q.Items())
			checkScoreOnItems(t, s, q, owner.Items())
		}
		checkScoreOnItems(t, owner.Snapshot(), q, nil)
	}
}

func TestScoreOnItemsEdges(t *testing.T) {
	one := NewProfile(0)
	one.Add(7, 1)
	q := NewProfile(1)
	q.Add(7, 1)
	q.Add(7, 2)
	q.Add(9, 1)
	for _, items := range [][]ItemID{nil, {}, {7}, {9}, {3, 7, 9, 11}, {8}} {
		checkScoreOnItems(t, one.Snapshot(), q, items)
		checkScoreOnItems(t, q.Snapshot(), one, items)
		checkScoreOnItems(t, one.SnapshotAt(0), q, items)
		checkScoreOnItems(t, q.SnapshotAt(1), one, items)
	}
	empty := NewProfile(2)
	checkScoreOnItems(t, empty.Snapshot(), q, []ItemID{7, 9})
	checkScoreOnItems(t, q.Snapshot(), empty, []ItemID{7, 9})
	if r, s := one.Snapshot().ScoreOnItems(q, []ItemID{7}); r != 1 || s != 1 {
		t.Fatalf("single-item profile: (%d, %d), want (1, 1)", r, s)
	}
}

func TestAppendCommonItemsMatchesMightContain(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, m := range []int{64, 2048, 20480} {
		for trial := 0; trial < 50; trial++ {
			owner, _ := randomPair(rng, 0, rng.Intn(200), 300, 3)
			p, _ := randomPair(rng, 1, rng.Intn(200), 300, 3)
			d := NewDigest(owner.Snapshot(), m, 6)
			var want []ItemID
			for _, it := range p.Items() {
				if d.MightContainItem(it) {
					want = append(want, it)
				}
			}
			got := d.AppendCommonItems([]ItemID{99, 98}, p)
			if !slices.Equal(got, want) {
				t.Fatalf("m=%d trial %d: AppendCommonItems = %v, Test loop %v", m, trial, got, want)
			}
			// The empty list is the "no common item" test of Algorithm 1:
			// it must be empty exactly when no item of p tests positive.
			shares := slices.ContainsFunc(p.Items(), d.MightContainItem)
			if (len(got) > 0) != shares {
				t.Fatalf("m=%d trial %d: AppendCommonItems empty = %v, an item tests positive = %v", m, trial, len(got) == 0, shares)
			}
		}
	}
}

func TestItemHashesTrackItems(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	p, _ := randomPair(rng, 0, 300, 80, 4)
	if len(p.itemHashes) != len(p.itemsSorted) {
		t.Fatalf("%d hash pairs for %d items", len(p.itemHashes), len(p.itemsSorted))
	}
	for i, it := range p.itemsSorted {
		if p.itemHashes[i] != bloom.HashKey(itemKey(it)) {
			t.Fatalf("item %d carries a foreign hash pair", it)
		}
	}
}

func TestScoringKernelsDoNotAllocate(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	owner, _ := randomPair(rng, 0, 400, 120, 4)
	q, _ := randomPair(rng, 1, 400, 120, 4)
	d := NewDigest(owner.Snapshot(), 2048, 6)
	common := d.AppendCommonItems(nil, q)
	stale := owner.SnapshotAt(owner.Len() / 2)
	if n := testing.AllocsPerRun(100, func() {
		common = d.AppendCommonItems(common, q)
		stale.ScoreOnItems(q, common)
		owner.Snapshot().ScoreOnItems(q, common)
		q.CommonScore(stale)
	}); n != 0 {
		t.Fatalf("AppendCommonItems + ScoreOnItems + CommonScore allocate %v times per run", n)
	}
}

// TestAddAllGrowsItemColumnOnce: the bulk builder counts a batch's new
// items and grows the item column and its hash column once, so building a
// profile allocates the same handful of times however many items it holds
// — the profile, the batch, the log, the two key columns and the two item
// columns — where growing the item columns per insertion costs two
// allocations per doubling. The bound, addAllAllocBound, is higher in race
// builds (allocbound_race_test.go).
func TestAddAllGrowsItemColumnOnce(t *testing.T) {
	for _, items := range []int{100, 1000} {
		acts := make([]Action, 0, 2*items)
		for i := 0; i < 2*items; i++ {
			acts = append(acts, Action{Item: ItemID(i / 2), Tag: TagID(i % 7)})
		}
		if n := testing.AllocsPerRun(20, func() { NewProfile(1).AddAll(acts) }); n > addAllAllocBound {
			t.Errorf("building a profile of %d items allocates %v times, want at most %d", items, n, addAllAllocBound)
		}
	}
}

// BenchmarkScoreOnItems times step 2 for one offer at the bench trace's
// profile size and at the paper's delicious mean (249 items/user): two
// users drawing their items from a space twice that size, three tags per
// item, scored on the digest's common-item estimate.
func BenchmarkScoreOnItems(b *testing.B) {
	for _, items := range []int{20, 249} {
		b.Run(fmt.Sprintf("items=%d", items), func(b *testing.B) {
			rng := rand.New(rand.NewSource(int64(items)))
			owner, _ := randomPair(rng, 0, 3*items, 2*items, 4)
			q, _ := randomPair(rng, 1, 3*items, 2*items, 4)
			s := owner.Snapshot()
			common := NewDigest(s, bloom.DefaultBits, bloom.DefaultHashes).AppendCommonItems(nil, q)
			b.ReportMetric(float64(len(common)), "common-items")
			total := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, score := s.ScoreOnItems(q, common)
				total += score
			}
			benchSink = total
		})
	}
}

var benchSink int
