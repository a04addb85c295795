package topk

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"p3q/internal/tagging"
)

// oracleTagSet is the query tag set as it stood before the mask: a map.
type oracleTagSet map[tagging.TagID]struct{}

func newOracleTagSet(tags []tagging.TagID) oracleTagSet {
	s := make(oracleTagSet, len(tags))
	for _, t := range tags {
		s[t] = struct{}{}
	}
	return s
}

// Accumulate is the partial scoring as it stood before the counting kernel,
// kept as the definition PartialList is held to: for every action (i, t) in
// the snapshot with t in the query, the score of i increases by one. Because
// a profile never contains duplicate (item, tag) pairs this computes exactly
// |{t in Q : Tagged(i, t)}| per item.
func Accumulate(acc map[tagging.ItemID]int, snap tagging.Snapshot, q oracleTagSet) {
	for _, a := range snap.Actions() {
		if _, ok := q[a.Tag]; ok {
			acc[a.Item]++
		}
	}
}

// oracleScores is PartialList's old body: one map for all the snapshots.
func oracleScores(snaps []tagging.Snapshot, q oracleTagSet) map[tagging.ItemID]int {
	acc := make(map[tagging.ItemID]int)
	for _, s := range snaps {
		Accumulate(acc, s, q)
	}
	return acc
}

// choiceTag draws a tag among eight residues mod 64 (0 and values above 31
// among them), lifted by 0, 64, 128 or 2^31, so that distinct tags sharing a
// mask bit — and tag 0 — are the common case.
func choiceTag(c choices) tagging.TagID {
	lift := [...]tagging.TagID{0, 64, 128, 1 << 31}
	return tagging.TagID(9*c.Intn(8)) + lift[c.Intn(len(lift))]
}

// checkPartialListCase draws up to five profiles, up to six snapshots of
// them (stale ones via SnapshotAt, the same profile more than once) and a
// query of zero to six tags with repeats, and requires PartialList and Exact
// to equal the map oracle and the TagSet to be its distinct tags. The oracle
// reads a stale snapshot as a fresh snapshot of a copy holding only the
// visible prefix, so it does not share Snapshot's visibility filter with the
// code under test.
func checkPartialListCase(t testing.TB, label string, c choices) {
	t.Helper()
	profiles := make([]*tagging.Profile, c.Intn(6))
	itemSpace := 1 + c.Intn(40)
	for i := range profiles {
		p := tagging.NewProfile(tagging.UserID(i))
		for j := c.Intn(31); j > 0; j-- {
			p.Add(tagging.ItemID(c.Intn(itemSpace)), choiceTag(c))
		}
		profiles[i] = p
	}
	var snaps, views []tagging.Snapshot
	if len(profiles) > 0 {
		for j := c.Intn(7); j > 0; j-- {
			p := profiles[c.Intn(len(profiles))]
			s := p.Snapshot()
			if c.Intn(2) == 0 {
				s = p.SnapshotAt(c.Intn(p.Len() + 1))
			}
			prefix := tagging.NewProfile(p.Owner())
			prefix.AddAll(p.Actions()[:s.Len()])
			snaps, views = append(snaps, s), append(views, prefix.Snapshot())
		}
	}
	tags := make([]tagging.TagID, c.Intn(7))
	for i := range tags {
		tags[i] = choiceTag(c)
	}

	q, oq := NewTagSet(tags), newOracleTagSet(tags)
	distinct, mask := make([]tagging.TagID, 0, len(oq)), uint64(0)
	for tag := range oq {
		distinct = append(distinct, tag)
		mask |= 1 << (tag % 64)
	}
	slices.Sort(distinct)
	if !slices.Equal(q.tags, distinct) || q.mask != mask {
		t.Fatalf("%s: NewTagSet(%v) = %+v, want tags %v, mask %#x", label, tags, q, distinct, mask)
	}

	acc := oracleScores(views, oq)
	got, want := PartialList(snaps, q), entriesFrom(acc)
	if got == nil || !slices.Equal(got, want) {
		t.Fatalf("%s: query %v: PartialList = %#v, want %#v", label, tags, got, want)
	}
	k := 1 + c.Intn(12)
	if got, want := Exact(snaps, q, k), TopOf(acc, k); got == nil || !slices.Equal(got, want) {
		t.Fatalf("%s: query %v: Exact(k=%d) = %#v, want %#v", label, tags, k, got, want)
	}
}

func TestPartialListMatchesOracle(t *testing.T) {
	for seed := int64(1); seed <= 2000; seed++ {
		checkPartialListCase(t, fmt.Sprintf("seed %d", seed), rand.New(rand.NewSource(seed)))
	}
}

// FuzzPartialList is the same comparison with the profiles, snapshots and
// query decoded from the input, one byte per decision.
func FuzzPartialList(f *testing.F) {
	f.Add([]byte{})
	for seed := int64(1); seed <= 32; seed++ {
		b := make([]byte, 256)
		rand.New(rand.NewSource(seed)).Read(b)
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c := byteChoices(data)
		checkPartialListCase(t, "fuzz", &c)
	})
}
