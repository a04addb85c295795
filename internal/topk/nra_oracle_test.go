package topk

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"p3q/internal/tagging"
)

// oracleNRA is the operator as it stood before the linear ranking pass:
// pointer candidates in a map, and the whole candidate set re-sorted after
// every scan position. It is far too slow for the engine and obviously
// right, which is what a reference needs: the scan schedule, the stop test
// and the ranking order below are the definition NRA is held to, Run by Run
// and field by field, in TestNRAMatchesOracle and FuzzNRAOracle.
type oracleNRA struct {
	k           int
	lists       []*oracleList
	cands       map[tagging.ItemID]*oracleCand
	ranked      []*oracleCand
	sumLastSeen int
}

type oracleList struct {
	entries []Entry
	pos     int
}

func (l *oracleList) lastSeen() int {
	if l.pos >= len(l.entries) {
		return 0
	}
	if l.pos == 0 {
		return l.entries[0].Score
	}
	return l.entries[l.pos-1].Score
}

func (l *oracleList) exhausted() bool { return l.pos >= len(l.entries) }

type oracleCand struct {
	item   tagging.ItemID
	worst  int
	best   int // as of the last rebuildRanking
	seenIn []int
}

func newOracleNRA(k int) *oracleNRA {
	if k < 1 {
		k = 1
	}
	return &oracleNRA{k: k, cands: make(map[tagging.ItemID]*oracleCand)}
}

func (n *oracleNRA) Run(newLists [][]Entry) []Entry {
	scanning := make([]int, 0, len(newLists))
	for _, l := range newLists {
		if len(l) == 0 {
			continue
		}
		n.lists = append(n.lists, &oracleList{entries: l})
		scanning = append(scanning, len(n.lists)-1)
	}

	position := 1
	for {
		n.rebuildRanking()
		if n.stopConditionMet() {
			break
		}
		progressed := false
		for _, li := range scanning {
			if n.scanOne(li) {
				progressed = true
			}
		}
		position++
		// Old lists that had stopped at position-1 rejoin the scan
		// (Algorithm 4, lines 18-22).
		for li, l := range n.lists {
			if l.pos == position-1 && !l.exhausted() && !oracleContains(scanning, li) {
				scanning = append(scanning, li)
			}
		}
		if !progressed {
			n.rebuildRanking()
			break
		}
	}
	return n.TopK()
}

func (n *oracleNRA) Drain() []Entry {
	for li, l := range n.lists {
		for !l.exhausted() {
			n.scanOne(li)
		}
	}
	n.rebuildRanking()
	return n.TopK()
}

func (n *oracleNRA) scanOne(li int) bool {
	l := n.lists[li]
	if l.exhausted() {
		return false
	}
	e := l.entries[l.pos]
	l.pos++
	c := n.cands[e.Item]
	if c == nil {
		c = &oracleCand{item: e.Item}
		n.cands[e.Item] = c
	}
	c.worst += e.Score
	c.seenIn = append(c.seenIn, li)
	return true
}

func (n *oracleNRA) TopK() []Entry {
	k := n.k
	if k > len(n.ranked) {
		k = len(n.ranked)
	}
	out := make([]Entry, k)
	for i := 0; i < k; i++ {
		out[i] = Entry{Item: n.ranked[i].item, Score: n.ranked[i].worst}
	}
	return out
}

// rebuildRanking recomputes best-case scores and re-sorts every candidate:
// descending worst-case, then descending best-case, then ascending item.
func (n *oracleNRA) rebuildRanking() {
	n.sumLastSeen = 0
	for _, l := range n.lists {
		n.sumLastSeen += l.lastSeen()
	}
	n.ranked = n.ranked[:0]
	for _, c := range n.cands {
		n.ranked = append(n.ranked, c)
		b := c.worst + n.sumLastSeen
		for _, li := range c.seenIn {
			b -= n.lists[li].lastSeen()
		}
		c.best = b
	}
	sort.Slice(n.ranked, func(i, j int) bool {
		a, b := n.ranked[i], n.ranked[j]
		if a.worst != b.worst {
			return a.worst > b.worst
		}
		if a.best != b.best {
			return a.best > b.best
		}
		return a.item < b.item
	})
}

func (n *oracleNRA) State() NRAState {
	st := NRAState{K: n.k}
	for _, l := range n.lists {
		st.Lists = append(st.Lists, NRAListState{Entries: l.entries, Pos: l.pos})
	}
	items := make([]tagging.ItemID, 0, len(n.cands))
	for it := range n.cands {
		items = append(items, it)
	}
	sort.Slice(items, func(i, j int) bool { return items[i] < items[j] })
	for _, it := range items {
		c := n.cands[it]
		st.Cands = append(st.Cands, NRACandidateState{Item: c.item, Worst: c.worst, SeenIn: c.seenIn})
	}
	return st
}

// stopConditionMet: the k-th worst-case score is at least the largest
// best-case score outside the top-k, the bound for an item unseen in every
// list included.
func (n *oracleNRA) stopConditionMet() bool {
	if len(n.ranked) < n.k {
		return false
	}
	kthWorst := n.ranked[n.k-1].worst
	maxBest := n.sumLastSeen
	for _, c := range n.ranked[n.k:] {
		maxBest = max(maxBest, c.best)
	}
	return kthWorst >= maxBest
}

func oracleContains(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// choices feeds checkOracleStream its decisions: a seeded generator in
// TestNRAMatchesOracle, the fuzzer's bytes in FuzzNRAOracle.
type choices interface{ Intn(n int) int }

// byteChoices spends one input byte per decision, and answers zero once the
// input runs out (the smallest stream: k = 1, one empty list).
type byteChoices []byte

func (b *byteChoices) Intn(n int) int {
	if len(*b) == 0 {
		return 0
	}
	v := int((*b)[0]) % n
	*b = (*b)[1:]
	return v
}

// choiceList draws one partial result list in canonical order. Scores come
// from a range of at most three values, so worst- and best-case ties at the
// k boundary — where only the full order decides — are the common case.
func choiceList(c choices, itemSpace, maxScore int) []Entry {
	acc := make(map[tagging.ItemID]int)
	for j := c.Intn(13); j > 0; j-- {
		acc[tagging.ItemID(c.Intn(itemSpace))] += 1 + c.Intn(maxScore)
	}
	return entriesFrom(acc)
}

// clusterList draws one partial result list of cluster-query-3d's shape:
// 50-300 distinct items, a short head scored 2-5 and a long tail of score 1.
// Items lean to the low IDs, so lists overlap the way popular items make
// them. In this shape most candidates sit in the tail below the k-th worst
// case, which is where rank skips them.
func clusterList(c choices, itemSpace int) []Entry {
	acc := make(map[tagging.ItemID]int)
	for n := 50 + c.Intn(251); len(acc) < n; {
		it := tagging.ItemID(min(c.Intn(itemSpace), c.Intn(itemSpace)))
		if _, dup := acc[it]; !dup {
			acc[it] = 1
			if c.Intn(16) == 0 {
				acc[it] += 1 + c.Intn(4)
			}
		}
	}
	return entriesFrom(acc)
}

// checkOracleStream drives NRA and the oracle through one stream of 1-30
// small lists (choiceList).
func checkOracleStream(t testing.TB, label string, c choices) {
	t.Helper()
	k := 1 + c.Intn(12)
	nLists := 1 + c.Intn(30)
	itemSpace := 2 + c.Intn(24)
	maxScore := 1 + c.Intn(3)
	runOracleStream(t, label, c, k, nLists, func() []Entry { return choiceList(c, itemSpace, maxScore) })
}

// checkClusterStream drives them through 30-100 lists of clusterList's
// shape over 300-600 items.
func checkClusterStream(t testing.TB, label string, c choices) {
	t.Helper()
	k := 1 + c.Intn(12)
	nLists := 30 + c.Intn(71)
	itemSpace := 300 + c.Intn(301)
	runOracleStream(t, label, c, k, nLists, func() []Entry { return clusterList(c, itemSpace) })
}

// runOracleStream feeds NRA and the oracle nLists lists from next in batches
// of 1-4 per Run and fails on the first difference: the returned top-k and
// the whole State (cursors, candidates, SeenIn order) after every Run, with
// the operator replaced by RestoreNRA(State()) at random points, then Drain
// against both the oracle and the exact sum.
func runOracleStream(t testing.TB, label string, c choices, k, nLists int, next func() []Entry) {
	t.Helper()
	nra, oracle := NewNRA(k), newOracleNRA(k)
	run := 0
	equal := func(what string, got, want any) {
		t.Helper()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s, k=%d, after Run %d: %s = %+v, want %+v", label, k, run, what, got, want)
		}
	}
	var all [][]Entry
	for ; len(all) < nLists; run++ {
		batch := make([][]Entry, 1+c.Intn(4))
		for i := range batch {
			batch[i] = next()
		}
		all = append(all, batch...)
		equal("top-k", nra.Run(batch), oracle.Run(batch))
		equal("state", nra.State(), oracle.State())
		if c.Intn(4) == 0 {
			restored, err := RestoreNRA(nra.State())
			if err != nil {
				t.Fatalf("%s, k=%d, after Run %d: %v", label, k, run, err)
			}
			equal("restored top-k", restored.TopK(), nra.TopK())
			nra = restored
		}
	}
	got := nra.Drain()
	equal("drain (vs oracle)", got, oracle.Drain())
	equal("drain (vs exact sum)", got, TopOf(SumLists(all), k))
	equal("drained state", nra.State(), oracle.State())
}

func TestNRAMatchesOracle(t *testing.T) {
	for seed := int64(1); seed <= 3000; seed++ {
		checkOracleStream(t, fmt.Sprintf("seed %d", seed), rand.New(rand.NewSource(seed)))
	}
	for seed := int64(1); seed <= 8; seed++ {
		checkClusterStream(t, fmt.Sprintf("cluster seed %d", seed), rand.New(rand.NewSource(seed)))
	}
}

// FuzzNRAOracle is the same comparison with the stream (k, lists, batching,
// restore points) decoded from the input; testdata/fuzz holds the seeds.
func FuzzNRAOracle(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		c := byteChoices(data)
		checkOracleStream(t, "fuzz", &c)
	})
}
