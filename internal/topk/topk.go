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

// TagSet is a deduplicated query tag set.
type TagSet map[tagging.TagID]struct{}

// NewTagSet builds a TagSet from the query's tags.
func NewTagSet(tags []tagging.TagID) TagSet {
	s := make(TagSet, len(tags))
	for _, t := range tags {
		s[t] = struct{}{}
	}
	return s
}

// Accumulate adds the partial scores of one profile snapshot into acc: for
// every action (i, t) in the snapshot with t in the query, the score of i
// increases by one. Because a profile never contains duplicate (item, tag)
// pairs this computes exactly |{t in Q : Tagged(i, t)}| per item.
func Accumulate(acc map[tagging.ItemID]int, snap tagging.Snapshot, q TagSet) {
	for _, a := range snap.Actions() {
		if _, ok := q[a.Tag]; ok {
			acc[a.Item]++
		}
	}
}

// PartialList computes the partial result list over a set of profile
// snapshots: all items with positive aggregate score, in canonical order.
// This is what a node reached by a query sends back to the querier.
func PartialList(snaps []tagging.Snapshot, q TagSet) []Entry {
	acc := make(map[tagging.ItemID]int)
	for _, s := range snaps {
		Accumulate(acc, s, q)
	}
	return entriesFrom(acc)
}

// Exact computes the exact top-k result over a set of snapshots. It is the
// centralized reference ("recall of 1") the protocol's output is compared
// against.
func Exact(snaps []tagging.Snapshot, q TagSet, k int) []Entry {
	acc := make(map[tagging.ItemID]int)
	for _, s := range snaps {
		Accumulate(acc, s, q)
	}
	return TopOf(acc, k)
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
