package topk

import (
	"math/rand"
	"slices"
	"testing"

	"p3q/internal/tagging"
)

func TestLessCanonicalOrder(t *testing.T) {
	if !Less(Entry{1, 5}, Entry{2, 3}) {
		t.Fatal("higher score should come first")
	}
	if !Less(Entry{1, 5}, Entry{2, 5}) {
		t.Fatal("equal score: lower item ID should come first")
	}
	if Less(Entry{2, 5}, Entry{1, 5}) {
		t.Fatal("tie-break inverted")
	}
}

func TestSortEntries(t *testing.T) {
	es := []Entry{{3, 1}, {1, 2}, {2, 2}, {9, 5}}
	SortEntries(es)
	want := []Entry{{9, 5}, {1, 2}, {2, 2}, {3, 1}}
	for i := range want {
		if es[i] != want[i] {
			t.Fatalf("sorted = %v, want %v", es, want)
		}
	}
}

func TestAccumulateCountsQueryTags(t *testing.T) {
	p := tagging.NewProfile(1)
	p.Add(10, 1)
	p.Add(10, 2)
	p.Add(10, 3)
	p.Add(20, 1)
	p.Add(30, 9)
	acc := make(map[tagging.ItemID]int)
	Accumulate(acc, p.Snapshot(), newOracleTagSet([]tagging.TagID{1, 2}))
	if acc[10] != 2 {
		t.Fatalf("score(10) = %d, want 2 (tags 1 and 2)", acc[10])
	}
	if acc[20] != 1 {
		t.Fatalf("score(20) = %d, want 1", acc[20])
	}
	if _, ok := acc[30]; ok {
		t.Fatal("item 30 scored despite no query tag")
	}
}

func TestNewTagSetDeduplicates(t *testing.T) {
	q := NewTagSet([]tagging.TagID{2, 1, 1})
	if !slices.Equal(q.tags, []tagging.TagID{1, 2}) {
		t.Fatalf("tag set = %v, want [1 2]", q.tags)
	}
}

func TestPartialListSortedAndPositive(t *testing.T) {
	a := tagging.NewProfile(1)
	a.Add(10, 1)
	a.Add(20, 1)
	b := tagging.NewProfile(2)
	b.Add(10, 1)
	b.Add(30, 5)
	q := NewTagSet([]tagging.TagID{1})
	l := PartialList([]tagging.Snapshot{a.Snapshot(), b.Snapshot()}, q)
	if len(l) != 2 {
		t.Fatalf("partial list = %v, want 2 entries (items 10, 20)", l)
	}
	if l[0] != (Entry{10, 2}) || l[1] != (Entry{20, 1}) {
		t.Fatalf("partial list = %v, want [{10 2} {20 1}]", l)
	}
}

func TestExactAggregatesAcrossProfiles(t *testing.T) {
	profiles := make([]tagging.Snapshot, 0, 3)
	for i := 0; i < 3; i++ {
		p := tagging.NewProfile(tagging.UserID(i))
		p.Add(100, 1) // all three tag item 100 with query tag 1
		p.Add(tagging.ItemID(i), 1)
		profiles = append(profiles, p.Snapshot())
	}
	got := Exact(profiles, NewTagSet([]tagging.TagID{1}), 2)
	if len(got) != 2 || got[0] != (Entry{100, 3}) {
		t.Fatalf("Exact = %v, want item 100 with score 3 first", got)
	}
}

func TestTopOfTruncatesAndOrders(t *testing.T) {
	acc := map[tagging.ItemID]int{1: 5, 2: 5, 3: 1, 4: 0, 5: -2}
	got := TopOf(acc, 2)
	if len(got) != 2 || got[0] != (Entry{1, 5}) || got[1] != (Entry{2, 5}) {
		t.Fatalf("TopOf = %v, want [{1 5} {2 5}]", got)
	}
}

func TestRecall(t *testing.T) {
	want := []Entry{{1, 3}, {2, 2}, {3, 1}}
	if r := Recall([]Entry{{1, 3}, {2, 2}, {3, 1}}, want); r != 1 {
		t.Fatalf("full recall = %f", r)
	}
	if r := Recall([]Entry{{1, 3}, {9, 9}, {8, 8}}, want); r < 0.32 || r > 0.34 {
		t.Fatalf("1/3 recall = %f", r)
	}
	if r := Recall(nil, want); r != 0 {
		t.Fatalf("empty-got recall = %f, want 0", r)
	}
	if r := Recall(nil, nil); r != 1 {
		t.Fatalf("empty-want recall = %f, want 1", r)
	}
}

func TestRecallIgnoresScores(t *testing.T) {
	// Recall compares item sets; intermediate NRA scores are worst-case
	// estimates and must not matter.
	want := []Entry{{1, 10}}
	if r := Recall([]Entry{{1, 2}}, want); r != 1 {
		t.Fatalf("recall = %f, want 1 (scores differ, items match)", r)
	}
}

// --- NRA ---

func TestNRAOneList(t *testing.T) {
	n := NewNRA(2)
	got := n.Run([][]Entry{{{1, 5}, {2, 3}, {3, 1}}})
	if len(got) != 2 || got[0].Item != 1 || got[1].Item != 2 {
		t.Fatalf("NRA top-2 of one list = %v", got)
	}
}

func TestNRAMergesLists(t *testing.T) {
	n := NewNRA(1)
	n.Run([][]Entry{
		{{1, 2}, {2, 1}},
		{{2, 2}, {1, 1}},
	})
	got := n.Drain()
	// Totals: item1 = 3, item2 = 3; tie broken by item ID.
	if len(got) != 1 || got[0] != (Entry{1, 3}) {
		t.Fatalf("drained top-1 = %v, want {1 3}", got)
	}
}

func TestNRAIncrementalConvergesToExact(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 40; trial++ {
		k := 1 + rng.Intn(10)
		nLists := 1 + rng.Intn(8)
		lists := make([][]Entry, nLists)
		for i := range lists {
			m := rng.Intn(30)
			acc := make(map[tagging.ItemID]int)
			for j := 0; j < m; j++ {
				acc[tagging.ItemID(rng.Intn(40))] += 1 + rng.Intn(5)
			}
			es := make([]Entry, 0, len(acc))
			for it, sc := range acc {
				es = append(es, Entry{it, sc})
			}
			SortEntries(es)
			lists[i] = es
		}
		n := NewNRA(k)
		// Deliver lists in random batches, as gossip cycles would.
		i := 0
		for i < len(lists) {
			batch := 1 + rng.Intn(3)
			if i+batch > len(lists) {
				batch = len(lists) - i
			}
			n.Run(lists[i : i+batch])
			i += batch
		}
		got := n.Drain()
		want := TopOf(SumLists(lists), k)
		if len(got) != len(want) {
			t.Fatalf("trial %d: NRA %v vs exact %v", trial, got, want)
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("trial %d: NRA %v vs exact %v", trial, got, want)
			}
		}
	}
}

func TestNRATopKSetCorrectAfterEachBatchOfAllLists(t *testing.T) {
	// Once every list has been absorbed, even before Drain the early-stop
	// top-k must score-dominate: every returned item's true total must be
	// at least the k-th true total (the classical NRA guarantee; ties may
	// swap equal-scored items until Drain resolves them).
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 30; trial++ {
		k := 1 + rng.Intn(5)
		lists := make([][]Entry, 1+rng.Intn(6))
		for i := range lists {
			acc := make(map[tagging.ItemID]int)
			for j := 0; j < 20; j++ {
				acc[tagging.ItemID(rng.Intn(25))] += 1 + rng.Intn(4)
			}
			es := make([]Entry, 0, len(acc))
			for it, sc := range acc {
				es = append(es, Entry{it, sc})
			}
			SortEntries(es)
			lists[i] = es
		}
		n := NewNRA(k)
		got := n.Run(lists)
		totals := SumLists(lists)
		exact := TopOf(totals, k)
		if len(exact) < k {
			continue
		}
		kth := exact[len(exact)-1].Score
		for _, e := range got {
			if totals[e.Item] < kth {
				t.Fatalf("trial %d: NRA returned item %d with true total %d < kth total %d",
					trial, e.Item, totals[e.Item], kth)
			}
		}
	}
}

func TestNRAEmptyRun(t *testing.T) {
	n := NewNRA(3)
	if got := n.Run(nil); len(got) != 0 {
		t.Fatalf("Run(nil) = %v, want empty", got)
	}
	if got := n.Run([][]Entry{{}}); len(got) != 0 {
		t.Fatalf("Run(empty list) = %v, want empty", got)
	}
	if len(n.lists) != 0 {
		t.Fatalf("empty lists were absorbed: %d", len(n.lists))
	}
}

func TestNRARunWithNoNewListsKeepsEstimate(t *testing.T) {
	n := NewNRA(2)
	first := n.Run([][]Entry{{{1, 5}, {2, 3}}})
	second := n.Run(nil)
	if len(first) != len(second) {
		t.Fatalf("estimate changed without new data: %v vs %v", first, second)
	}
	for i := range first {
		if first[i].Item != second[i].Item {
			t.Fatalf("estimate changed without new data: %v vs %v", first, second)
		}
	}
}

func TestNRAKSmallerThanCandidates(t *testing.T) {
	n := NewNRA(10)
	got := n.Run([][]Entry{{{1, 2}}})
	if len(got) != 1 {
		t.Fatalf("got %d entries, want 1 (fewer candidates than k)", len(got))
	}
}

func TestNRAKClamped(t *testing.T) {
	n := NewNRA(0)
	if n.k != 1 {
		t.Fatalf("k = %d, want clamped to 1", n.k)
	}
}

func TestNRAEarlyStopDoesNotScanEverything(t *testing.T) {
	// A single list with a dominant head: the scan should stop long before
	// the tail. This is the whole point of NRA.
	es := make([]Entry, 1000)
	es[0] = Entry{0, 1000}
	for i := 1; i < 1000; i++ {
		es[i] = Entry{tagging.ItemID(i), 1}
	}
	n := NewNRA(1)
	got := n.Run([][]Entry{es})
	if got[0].Item != 0 {
		t.Fatalf("top-1 = %v, want item 0", got)
	}
	if n.lists[0].pos >= 1000 {
		t.Fatal("NRA scanned the entire list despite a dominant top-1")
	}
}

func TestNRADrainIdempotent(t *testing.T) {
	n := NewNRA(2)
	n.Run([][]Entry{{{1, 5}, {2, 3}}, {{3, 4}}})
	a := n.Drain()
	b := n.Drain()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("Drain not idempotent: %v vs %v", a, b)
		}
	}
}

func TestNRAWorstScoresNeverExceedTotals(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	lists := make([][]Entry, 5)
	for i := range lists {
		acc := make(map[tagging.ItemID]int)
		for j := 0; j < 15; j++ {
			acc[tagging.ItemID(rng.Intn(20))] += 1 + rng.Intn(3)
		}
		es := make([]Entry, 0, len(acc))
		for it, sc := range acc {
			es = append(es, Entry{it, sc})
		}
		SortEntries(es)
		lists[i] = es
	}
	totals := SumLists(lists)
	n := NewNRA(3)
	for _, e := range n.Run(lists) {
		if e.Score > totals[e.Item] {
			t.Fatalf("worst-case score %d exceeds true total %d for item %d",
				e.Score, totals[e.Item], e.Item)
		}
	}
	for _, e := range n.Drain() {
		if e.Score != totals[e.Item] {
			t.Fatalf("drained score %d != true total %d for item %d",
				e.Score, totals[e.Item], e.Item)
		}
	}
}

func TestSumLists(t *testing.T) {
	got := SumLists([][]Entry{
		{{1, 2}, {2, 1}},
		{{1, 3}},
	})
	if got[1] != 5 || got[2] != 1 {
		t.Fatalf("SumLists = %v", got)
	}
}

// Less reports whether a precedes b in the canonical order.
func Less(a, b Entry) bool { return compare(a, b) < 0 }

// TopOf returns the k best entries of a score map in canonical order.
func TopOf(acc map[tagging.ItemID]int, k int) []Entry {
	es := entriesFrom(acc)
	if len(es) > k {
		es = es[:k]
	}
	return es
}

// SumLists aggregates a set of partial result lists by summing scores per
// item. It is the ground truth the incremental NRA must converge to.
func SumLists(lists [][]Entry) map[tagging.ItemID]int {
	acc := make(map[tagging.ItemID]int)
	for _, l := range lists {
		for _, e := range l {
			acc[e.Item] += e.Score
		}
	}
	return acc
}

func entriesFrom(acc map[tagging.ItemID]int) []Entry {
	es := make([]Entry, 0, len(acc))
	for it, sc := range acc {
		if sc > 0 {
			es = append(es, Entry{Item: it, Score: sc})
		}
	}
	SortEntries(es)
	return es
}
