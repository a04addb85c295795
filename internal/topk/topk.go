// Package topk implements the top-k machinery of P3Q: the per-node partial
// scoring of queries against stored profile snapshots, an exact reference
// evaluator, and the incremental No-Random-Access (NRA) algorithm of
// Algorithm 4, adapted — as in §2.3 of the paper — to partial result lists
// that arrive asynchronously over gossip cycles.
//
// Scoring model (§2.3): for a query Q and a profile uj, the score of an
// item i is the number of tags of Q that uj used on i. The relevance of i
// for the querier is the sum of these scores over the profiles of her
// personal network. Partial result lists contain every item with a positive
// partial score, ranked by descending score.
package topk

import (
	"slices"

	"p3q/internal/tagging"
)

// Entry is one row of a (partial or final) result list.
type Entry struct {
	Item  tagging.ItemID
	Score int
}

// compare is the canonical order of result lists: descending score with
// ascending item ID as the deterministic tie-break used throughout the
// reproduction.
func compare(a, b Entry) int {
	switch {
	case a.Score > b.Score || a.Score == b.Score && a.Item < b.Item:
		return -1
	case a == b:
		return 0
	}
	return 1
}

// Less reports whether a precedes b in the canonical order.
func Less(a, b Entry) bool { return compare(a, b) < 0 }

// SortEntries sorts a result list in the canonical order.
func SortEntries(es []Entry) { slices.SortFunc(es, compare) }

// TagSet is a query's distinct tags in ascending order, with bit t&63 of mask
// set for each tag t. A query's tags are the ones its user put on one item, a
// handful: membership is one mask test that rejects most tags, then a short
// scan. The zero value is the empty set.
type TagSet struct {
	mask uint64
	tags []tagging.TagID
}

// NewTagSet builds a TagSet from the query's tags.
func NewTagSet(tags []tagging.TagID) TagSet {
	s := TagSet{tags: slices.Clone(tags)}
	slices.Sort(s.tags)
	s.tags = slices.Compact(s.tags)
	for _, t := range s.tags {
		s.mask |= 1 << (t & 63)
	}
	return s
}

// has reports whether t is in the set.
func (s TagSet) has(t tagging.TagID) bool {
	return s.mask&(1<<(t&63)) != 0 && slices.Contains(s.tags, t)
}

// PartialList computes the partial result list over a set of profile
// snapshots: all items with positive aggregate score, in canonical order.
// This is what a node reached by a query sends back to the querier.
//
// A profile never holds an (item, tag) pair twice, so an item's score is the
// number of visible actions on it whose tag is in q: the items of those
// actions are collected and sorted, and each run of one item becomes an
// entry. No map is built.
func PartialList(snaps []tagging.Snapshot, q TagSet) []Entry {
	var small [256]tagging.ItemID
	items := small[:0]
	for _, s := range snaps {
		for _, a := range s.Actions() {
			if q.has(a.Tag) {
				items = append(items, a.Item)
			}
		}
	}
	slices.Sort(items)
	runs := 0
	for i, it := range items {
		if i == 0 || it != items[i-1] {
			runs++
		}
	}
	es := make([]Entry, 0, runs) // exact: lists live on in query state
	for i, it := range items {
		if i > 0 && it == items[i-1] {
			es[len(es)-1].Score++
		} else {
			es = append(es, Entry{Item: it, Score: 1})
		}
	}
	SortEntries(es)
	return es
}

// Exact computes the exact top-k result over a set of snapshots. It is the
// centralized reference ("recall of 1") the protocol's output is compared
// against.
func Exact(snaps []tagging.Snapshot, q TagSet, k int) []Entry {
	es := PartialList(snaps, q)
	return es[:min(k, len(es))]
}

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

// Recall returns |got ∩ want| / |want|, the metric of §3.2.2. Empty want
// yields recall 1 (nothing to retrieve).
func Recall(got, want []Entry) float64 {
	if len(want) == 0 {
		return 1
	}
	set := make(map[tagging.ItemID]struct{}, len(want))
	for _, e := range want {
		set[e.Item] = struct{}{}
	}
	hit := 0
	for _, e := range got {
		if _, ok := set[e.Item]; ok {
			hit++
		}
	}
	return float64(hit) / float64(len(want))
}
