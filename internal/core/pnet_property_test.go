package core

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"p3q/internal/tagging"
)

// refPnet is a naive reference model of PersonalNetwork implementing the
// pre-refactor semantics literally: a flat entry map, a full re-sort on
// every read, and an increment-every-neighbour timestamp walk on Touch.
// The property test drives it in lockstep with the incremental
// implementation and demands identical rankings, evictions, needStore sets
// and age orderings after every operation.
type refPnet struct {
	s, c    int
	entries map[tagging.UserID]*refEntry
}

type refEntry struct {
	id     tagging.UserID
	score  int
	digest *tagging.Digest
	ts     int
	stored tagging.Snapshot
}

func newRefPnet(s, c int) *refPnet {
	if c > s {
		c = s
	}
	return &refPnet{s: s, c: c, entries: make(map[tagging.UserID]*refEntry)}
}

func (r *refPnet) upsert(id tagging.UserID, score int, digest *tagging.Digest) {
	if e := r.entries[id]; e != nil {
		e.score = score
		e.digest = digest
		return
	}
	r.entries[id] = &refEntry{id: id, score: score, digest: digest}
}

func (r *refPnet) ranking() []*refEntry {
	out := make([]*refEntry, 0, len(r.entries))
	for _, e := range r.entries {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].score != out[j].score {
			return out[i].score > out[j].score
		}
		return out[i].id < out[j].id
	})
	return out
}

func (r *refPnet) rebalance() (needStore []tagging.UserID) {
	ranked := r.ranking()
	for len(ranked) > r.s {
		last := ranked[len(ranked)-1]
		delete(r.entries, last.id)
		ranked = ranked[:len(ranked)-1]
	}
	for i, e := range ranked {
		if i < r.c {
			if !(e.stored.Valid() && e.stored.Version() >= e.digest.Version) {
				needStore = append(needStore, e.id)
			}
		} else if e.stored.Valid() {
			e.stored = tagging.Snapshot{}
		}
	}
	return needStore
}

func (r *refPnet) touch(partner tagging.UserID) {
	for _, e := range r.entries {
		if e.id == partner {
			e.ts = 0
		} else {
			e.ts++
		}
	}
}

func (r *refPnet) reset(partner tagging.UserID) {
	if e := r.entries[partner]; e != nil {
		e.ts = 0
	}
}

func (r *refPnet) byAge() []*refEntry {
	out := r.ranking()
	sort.Slice(out, func(i, j int) bool {
		if out[i].ts != out[j].ts {
			return out[i].ts > out[j].ts
		}
		return out[i].id < out[j].id
	})
	return out
}

// comparePnets fails the test at the first divergence between the
// incremental implementation and the reference model: membership, ranking
// order, scores, ages, stored validity, and the age groups (oldest first,
// each in ID order) that the lazy planner selects its partner from.
func comparePnets(t *testing.T, step int, pn *PersonalNetwork, ref *refPnet) {
	t.Helper()
	if pn.Len() != len(ref.entries) {
		t.Fatalf("step %d: len %d != ref %d", step, pn.Len(), len(ref.entries))
	}
	ranked := ref.ranking()
	got := pn.Ranking()
	for i, re := range ranked {
		ge := got[i]
		if ge.ID != re.id || ge.Score != re.score {
			t.Fatalf("step %d: ranking[%d] = %d/%d, ref %d/%d",
				step, i, ge.ID, ge.Score, re.id, re.score)
		}
		if ge.Age() != re.ts {
			t.Fatalf("step %d: entry %d age %d, ref timestamp %d",
				step, ge.ID, ge.Age(), re.ts)
		}
		if ge.Stored.Valid() != re.stored.Valid() {
			t.Fatalf("step %d: entry %d stored=%v, ref %v",
				step, ge.ID, ge.Stored.Valid(), re.stored.Valid())
		}
	}
	refAge := ref.byAge()
	var group []uint32
	for i, lo := 0, uint64(0); i < len(refAge); i += len(group) {
		var last uint64
		group, last = pn.appendAgeGroup(group[:0], lo)
		lo = last + 1
		// The group is exactly the reference's next run of equal timestamps.
		end := i
		for end < len(refAge) && refAge[end].ts == refAge[i].ts {
			end++
		}
		if len(group) != end-i {
			t.Fatalf("step %d: age group at byAge[%d] has %d members, ref %d", step, i, len(group), end-i)
		}
		for k, pos := range group {
			if ge, re := &got[pos], refAge[i+k]; ge.ID != re.id || ge.Age() != re.ts {
				t.Fatalf("step %d: byAge[%d] = %d (age %d), ref %d (age %d)",
					step, i+k, ge.ID, ge.Age(), re.id, re.ts)
			}
		}
	}
}

func memberIDs(entries []*Entry) []tagging.UserID {
	out := make([]tagging.UserID, len(entries))
	for i, e := range entries {
		out[i] = e.ID
	}
	return out
}

// TestPnetMatchesNaiveModel drives random Upsert/Rebalance/Touch/Reset
// sequences through the incremental personal network and the naive
// full-re-sort reference model, comparing rankings, evictions, needStore
// sets and age orderings after every operation.
func TestPnetMatchesNaiveModel(t *testing.T) {
	const ids = 30
	for seed := int64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			s := 3 + rng.Intn(10)
			c := rng.Intn(s + 2) // occasionally > s: both clamp
			pn := NewPersonalNetwork(0, s, c)
			ref := newRefPnet(s, c)

			// One profile per candidate id; version bumps are shared so both
			// models see identical digests and snapshots.
			profiles := make([]*tagging.Profile, ids+1)
			digests := make([]*tagging.Digest, ids+1)
			for id := 1; id <= ids; id++ {
				profiles[id] = tagging.NewProfile(tagging.UserID(id))
				profiles[id].Add(tagging.ItemID(id), 0)
				digests[id] = tagging.NewDigest(profiles[id].Snapshot(), 256, 3)
			}

			for step := 0; step < 400; step++ {
				id := tagging.UserID(1 + rng.Intn(ids))
				switch op := rng.Intn(10); {
				case op < 4: // upsert, sometimes with a version bump
					if rng.Intn(3) == 0 {
						profiles[id].Add(tagging.ItemID(rng.Intn(50)), tagging.TagID(rng.Intn(5)))
						digests[id] = tagging.NewDigest(profiles[id].Snapshot(), 256, 3)
					}
					score := 1 + rng.Intn(12)
					pn.Upsert(id, score, digests[id])
					ref.upsert(id, score, digests[id])
				case op < 6: // rebalance; store a random subset of needStore
					need := pn.Rebalance()
					refNeed := ref.rebalance()
					if len(need) != len(refNeed) {
						t.Fatalf("step %d: needStore %v, ref %v", step, memberIDs(need), refNeed)
					}
					for i, e := range need {
						if e.ID != refNeed[i] {
							t.Fatalf("step %d: needStore %v, ref %v", step, memberIDs(need), refNeed)
						}
						if rng.Intn(2) == 0 {
							e.Stored = profiles[e.ID].Snapshot()
							ref.entries[e.ID].stored = profiles[e.ID].Snapshot()
						}
					}
				case op < 9: // touch (sometimes an absent id)
					pn.Touch(id)
					ref.touch(id)
				default:
					pn.ResetTimestamp(id)
					ref.reset(id)
				}
				comparePnets(t, step, pn, ref)
			}
		})
	}
}
