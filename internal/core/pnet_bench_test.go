package core

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"p3q/internal/randx"
	"p3q/internal/tagging"
)

// resortPnet is the pre-refactor ranking maintenance, kept as the bench
// baseline: a dirty flag plus a full sort.Slice rebuild on every Rebalance
// (and on every read of a dirty ranking).
type resortPnet struct {
	s, c    int
	entries map[tagging.UserID]*Entry
	ranking []*Entry
	dirty   bool
}

func newResortPnet(s, c int) *resortPnet {
	return &resortPnet{s: s, c: c, entries: make(map[tagging.UserID]*Entry)}
}

func (pn *resortPnet) upsert(id tagging.UserID, score int, digest *tagging.Digest) {
	e := pn.entries[id]
	if e == nil {
		e = &Entry{ID: id, Score: int32(score), Stored: noReplica, Digest: digest}
		pn.entries[id] = e
	} else {
		e.Score = int32(score)
		e.Digest = digest
	}
	pn.dirty = true
}

func (pn *resortPnet) rebuild() {
	if !pn.dirty {
		return
	}
	pn.ranking = pn.ranking[:0]
	for _, e := range pn.entries {
		pn.ranking = append(pn.ranking, e)
	}
	sort.Slice(pn.ranking, func(i, j int) bool {
		a, b := pn.ranking[i], pn.ranking[j]
		if a.Score != b.Score {
			return a.Score > b.Score
		}
		return a.ID < b.ID
	})
	pn.dirty = false
}

func (pn *resortPnet) rebalance() (needStore []*Entry) {
	pn.rebuild()
	for len(pn.ranking) > pn.s {
		last := pn.ranking[len(pn.ranking)-1]
		delete(pn.entries, last.ID)
		pn.ranking = pn.ranking[:len(pn.ranking)-1]
	}
	for i, e := range pn.ranking {
		if i < pn.c {
			if !e.StoredFresh() {
				needStore = append(needStore, e)
			}
		} else if e.Stored != noReplica {
			e.Stored = noReplica
		}
	}
	return needStore
}

// pnetBenchOps synthesizes the commit-phase workload of a converged node at
// s=100: batches of scored upserts (the size of a typical integration)
// followed by a Rebalance, drawing candidates from a pool three times the
// network size.
type pnetBenchOp struct {
	id    tagging.UserID
	score int
}

func pnetBenchOps(n int) ([][]pnetBenchOp, []*tagging.Digest) {
	const pool = 300
	digests := make([]*tagging.Digest, pool+1)
	for id := 1; id <= pool; id++ {
		digests[id] = mkDigest(tagging.UserID(id), 1)
	}
	rng := rand.New(rand.NewSource(1))
	batches := make([][]pnetBenchOp, n)
	for i := range batches {
		batch := make([]pnetBenchOp, 8)
		for j := range batch {
			batch[j] = pnetBenchOp{
				id:    tagging.UserID(1 + rng.Intn(pool)),
				score: 1 + rng.Intn(40),
			}
		}
		batches[i] = batch
	}
	return batches, digests
}

// BenchmarkPnetUpsertRebalance compares the incremental rank-ordered
// personal network against the pre-refactor full-re-sort baseline on the
// same upsert/rebalance stream at s=100 — the structure that shrank the
// sharded commit phase's per-integration cost.
func BenchmarkPnetUpsertRebalance(b *testing.B) {
	batches, digests := pnetBenchOps(512)
	b.Run("incremental-s100", func(b *testing.B) {
		pn := NewPersonalNetwork(0, 100, 10)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, op := range batches[i%len(batches)] {
				pn.Upsert(op.id, op.score, digests[op.id])
			}
			pn.Rebalance()
		}
	})
	b.Run("resort-s100", func(b *testing.B) {
		pn := newResortPnet(100, 10)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, op := range batches[i%len(batches)] {
				pn.upsert(op.id, op.score, digests[op.id])
			}
			pn.rebalance()
		}
	})
}

// BenchmarkTopPartnerSelect times the lazy planner's partner selection
// alone, every neighbour online, through one warm plan slot: "steady" is a
// network whose neighbours were each gossiped with at a different clock
// value (one scan, a one-member group, half a walk), "tied" the untouched
// bootstrap network where every stamp is equal and the single group is the
// whole network (the s log s worst case, by ID). Both must read 0 allocs/op.
func BenchmarkTopPartnerSelect(b *testing.B) {
	for _, s := range []int{50, 100, 1000} {
		for _, ages := range []string{"steady", "tied"} {
			b.Run(fmt.Sprintf("%s-s%d", ages, s), func(b *testing.B) {
				pn := NewPersonalNetwork(0, s, 0)
				for id := 1; id <= s; id++ {
					pn.Upsert(tagging.UserID(id), 1+id%17, nil)
				}
				if ages == "steady" {
					for _, i := range rand.New(rand.NewSource(1)).Perm(s) {
						pn.Touch(tagging.UserID(1 + i))
					}
				}
				e, a := selectionEngine(pn, s)
				rng := randx.NewSource(1)
				var p topPlan
				var w planWorker
				e.selectTopPartner(&w, a, rng, &p)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if e.selectTopPartner(&w, a, rng, &p) == nil {
						b.Fatal("no partner selected")
					}
				}
			})
		}
	}
}
