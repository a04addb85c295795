package core

import (
	"cmp"
	"math"
	"slices"
	"sort"

	"p3q/internal/idtab"
	"p3q/internal/tagging"
)

// Entry is one neighbour of a personal network (§2.1): a similar user, her
// similarity score, the latest known digest of her profile, a gossip
// stamp, and — for the c most similar neighbours — the version of the
// replica of her profile stored locally. The replica itself is the owner's
// profile truncated to that version (profiles are append-only), so only the
// version is kept; Node.replica builds the snapshot where it is read.
//
// Entries live by value inside the network's flat ranking slice, 24 bytes
// each. Pointers obtained from Entry, Rebalance or StoredEntries point into
// that slice and stay valid only until the next mutation of the network
// (Upsert, Rebalance, Touch, ResetTimestamp); re-fetch after mutating.
type Entry struct {
	ID    tagging.UserID
	Score int32
	// Stored is the version of the locally stored replica of the
	// neighbour's profile; noReplica when the neighbour is outside the top-c.
	Stored int32
	// last is the owning network's clock value when the neighbour was last
	// gossiped with (or added).
	last uint32
	// Digest is the latest known digest of the neighbour's profile.
	Digest *tagging.Digest
}

// noReplica is Entry.Stored of a neighbour whose profile is not stored.
const noReplica = -1

// StoredFresh reports whether the stored replica is at least as recent as
// the latest known digest.
func (e *Entry) StoredFresh() bool {
	return e.Stored != noReplica && int(e.Stored) >= e.Digest.Version
}

// rankBefore is the ranking order of §2.1: descending score, ties broken by
// ascending ID.
func rankBefore(aScore int32, aID tagging.UserID, bScore int32, bID tagging.UserID) bool {
	if aScore != bScore {
		return aScore > bScore
	}
	return aID < bID
}

// PersonalNetwork is the top-layer state of one node: up to s scored
// neighbours ranked by similarity, with snapshots stored for the top c.
//
// The hot state is dense: the ranking is a flat []Entry kept sorted at all
// times (descending score, ascending ID), and the by-owner lookup is an
// idtab.Table mapping neighbour ID to its current score — membership
// is one probe sequence, and an entry's position falls out of a binary search
// on (score, ID). Because the index stores no positions, the shifts that keep
// the ranking sorted never touch it; only a score change updates one slot.
//
// Gossip ages run off a per-network logical clock (clock advances once per
// Touch; an entry's age is clock - last), so Touch is O(1) instead of an
// increment-every-neighbour walk. Touch runs at most once per lazy cycle
// and once per eager gossip the node starts, so the 32-bit clock wraps
// only after four billion gossips of one node; Restore refuses a larger
// clock. No age ordering is kept: the lazy planner needs only the oldest
// neighbours, which appendAgeGroup finds in one scan.
type PersonalNetwork struct {
	self tagging.UserID //p3q:transient implicit: the owning node's id, re-derived by the restoring node
	s, c int
	// ranking always sorted: descending score, ascending ID.
	ranking []Entry
	//p3q:transient mirror: by-owner index over ranking (neighbour ID -> score), rebuilt on restore
	idx idtab.Table
	// clock counts Touch calls; entries age implicitly as it advances.
	clock uint32
}

// NewPersonalNetwork returns an empty personal network with the given
// capacities.
func NewPersonalNetwork(self tagging.UserID, s, c int) *PersonalNetwork {
	if c > s {
		c = s
	}
	return &PersonalNetwork{self: self, s: s, c: c}
}

// Len returns the number of neighbours.
func (pn *PersonalNetwork) Len() int { return len(pn.ranking) }

// C returns the profile storage capacity.
func (pn *PersonalNetwork) C() int { return pn.c }

// panicUpsert keeps the panic's interface boxing out of the hot Upsert
// body; it fires only on caller bugs.
func panicUpsert(msg string) { panic(msg) }

// rankPos returns the ranking position of the (score, id) key: the entry's
// exact position when present ((score, ID) keys are unique), the insertion
// point otherwise.
//
//p3q:hotpath
func (pn *PersonalNetwork) rankPos(score int32, id tagging.UserID) int {
	return sort.Search(len(pn.ranking), func(i int) bool {
		e := &pn.ranking[i]
		return !rankBefore(e.Score, e.ID, score, id)
	})
}

// Entry returns the neighbour entry for id, or nil. The pointer aliases the
// ranking slice and stays valid only until the next mutation of the network.
//
//p3q:hotpath
func (pn *PersonalNetwork) Entry(id tagging.UserID) *Entry {
	score, ok := pn.idx.Get(uint32(id))
	if !ok {
		return nil
	}
	return &pn.ranking[pn.rankPos(score, id)]
}

// Contains reports whether id is a neighbour.
//
//p3q:hotpath
func (pn *PersonalNetwork) Contains(id tagging.UserID) bool {
	_, ok := pn.idx.Get(uint32(id))
	return ok
}

// insertAt drops e into the ranking at position i, shifting the tail up.
//
//p3q:hotpath
func (pn *PersonalNetwork) insertAt(i int, e Entry) {
	pn.ranking = append(pn.ranking, Entry{})
	copy(pn.ranking[i+1:], pn.ranking[i:])
	pn.ranking[i] = e
}

// Upsert adds the neighbour or updates its score and digest, and returns
// the entry (a pointer into the ranking, valid until the next mutation).
// New entries start with timestamp 0, per §2.2.1, and without a replica.
// Scores must be positive and fit an int32; Upsert panics otherwise
// (callers filter).
//
//p3q:hotpath
func (pn *PersonalNetwork) Upsert(id tagging.UserID, score int, digest *tagging.Digest) *Entry {
	if score <= 0 || score > math.MaxInt32 {
		panicUpsert("core: Upsert with a score outside [1, MaxInt32]")
	}
	if id == pn.self {
		panicUpsert("core: Upsert of self")
	}
	// One probe sequence both finds the old score and records the new one.
	s32 := int32(score)
	if old, had := pn.idx.Put(uint32(id), s32); had {
		i := pn.rankPos(old, id)
		e := &pn.ranking[i]
		e.Digest = digest
		if e.Score == s32 {
			return e
		}
		// Reposition: lift the entry out, shift the gap closed, re-insert
		// under the new key.
		ev := *e
		ev.Score = s32
		copy(pn.ranking[i:], pn.ranking[i+1:])
		pn.ranking = pn.ranking[:len(pn.ranking)-1]
		j := pn.rankPos(s32, id)
		pn.insertAt(j, ev)
		return &pn.ranking[j]
	}
	j := pn.rankPos(s32, id)
	pn.insertAt(j, Entry{ID: id, Score: s32, Stored: noReplica, last: pn.clock, Digest: digest})
	return &pn.ranking[j]
}

// reserve sizes an empty network's ranking and by-owner index for n entries,
// so the checkpoint reader's appendEntry calls never grow either.
func (pn *PersonalNetwork) reserve(n int) {
	pn.ranking = make([]Entry, 0, n)
	pn.idx.Reserve(n)
}

// appendEntry appends a restored entry at the tail of the ranking and
// indexes it. The checkpoint reader calls it with entries already validated
// to arrive in rank order; it must not be used elsewhere.
func (pn *PersonalNetwork) appendEntry(e Entry) {
	pn.ranking = append(pn.ranking, e)
	pn.idx.Put(uint32(e.ID), e.Score)
}

// Ranking returns the neighbours ordered by descending score (ties:
// ascending ID). The slice aliases internal state; do not modify.
func (pn *PersonalNetwork) Ranking() []Entry { return pn.ranking }

// Rebalance enforces the capacity rules after a batch of Upserts: only the
// s best neighbours are kept, and only the c best keep stored profiles. It
// returns the entries now inside the top-c whose stored replica is missing
// or stale — the caller must fetch those (step 3 of Algorithm 1). The
// returned pointers alias the ranking and stay valid until the next
// mutation of the network; callers write the fetched version to Stored
// through them immediately.
func (pn *PersonalNetwork) Rebalance() (needStore []*Entry) {
	return pn.AppendRebalance(nil)
}

// AppendRebalance is Rebalance appending the entries to fetch into a
// caller-owned buffer (reusing its capacity) and returning it, as
// AppendStored does. The ranking is already sorted, so eviction is a
// truncation of the tail.
//
//p3q:hotpath
func (pn *PersonalNetwork) AppendRebalance(dst []*Entry) []*Entry {
	dst = dst[:0]
	for len(pn.ranking) > pn.s {
		last := &pn.ranking[len(pn.ranking)-1]
		pn.idx.Delete(uint32(last.ID))
		*last = Entry{}
		pn.ranking = pn.ranking[:len(pn.ranking)-1]
	}
	for i := range pn.ranking {
		e := &pn.ranking[i]
		if i < pn.c {
			if !e.StoredFresh() {
				dst = append(dst, e)
			}
		} else if e.Stored != noReplica {
			// Pushed out of the top-c: the replica is dropped to keep the
			// local storage within bounds (§2.1).
			e.Stored = noReplica
		}
	}
	return dst
}

// Members returns the neighbour IDs in rank order.
func (pn *PersonalNetwork) Members() []tagging.UserID {
	out := make([]tagging.UserID, len(pn.ranking))
	for i := range pn.ranking {
		out[i] = pn.ranking[i].ID
	}
	return out
}

// StoredEntries returns the entries currently holding a profile replica,
// in rank order. The pointers alias the ranking; valid until the next
// mutation of the network.
func (pn *PersonalNetwork) StoredEntries() []*Entry {
	return pn.AppendStored(nil)
}

// AppendStored is StoredEntries appending into a caller-owned buffer
// (reusing its capacity) and returning it. Same aliasing rule: the pointers
// point into the ranking and are valid until the next mutation.
//
//p3q:hotpath
func (pn *PersonalNetwork) AppendStored(dst []*Entry) []*Entry {
	dst = dst[:0]
	for i := range pn.ranking {
		if pn.ranking[i].Stored != noReplica {
			dst = append(dst, &pn.ranking[i])
		}
	}
	return dst
}

// Unstored returns the neighbour IDs whose profiles are not locally stored,
// in rank order. This is the initial remaining list of a query (§2.2.2).
func (pn *PersonalNetwork) Unstored() []tagging.UserID {
	var out []tagging.UserID
	for i := range pn.ranking {
		if pn.ranking[i].Stored == noReplica {
			out = append(out, pn.ranking[i].ID)
		}
	}
	return out
}

// appendAgeGroup appends to dst one age group of the lazy-mode partner
// preference (§2.2.1: oldest gossip first) — the ranking positions of the
// neighbours sharing the smallest last-gossip stamp that is at least lo, in
// ascending ID order — and returns the extended slice with that stamp. It
// appends nothing when no stamp reaches lo. Calling it again with lo one
// past the returned stamp yields the next younger group; both are uint64,
// so one past the largest 32-bit stamp does not wrap to the oldest.
//
//p3q:phase plan
//p3q:hotpath
func (pn *PersonalNetwork) appendAgeGroup(dst []uint32, lo uint64) ([]uint32, uint64) {
	base := len(dst)
	var oldest uint64
	for i := range pn.ranking {
		last := uint64(pn.ranking[i].last)
		switch {
		case last < lo, len(dst) > base && last > oldest:
			continue
		case len(dst) > base && last < oldest:
			dst = dst[:base]
		}
		oldest = last
		dst = append(dst, uint32(i))
	}
	ranking := pn.ranking
	slices.SortFunc(dst[base:], func(i, j uint32) int { return cmp.Compare(ranking[i].ID, ranking[j].ID) })
	return dst, oldest
}

// age returns the §2.2.1 timestamp of e: the gossips since it was last
// gossiped with or added, clock - last, so Touch never walks the network.
func (pn *PersonalNetwork) age(e *Entry) int { return int(pn.clock - e.last) }

// Touch records a gossip with the given partner: its age resets to 0 and
// every other neighbour ages by 1 (§2.2.1). The aging is implicit — the
// logical clock advances and ages are derived as clock - last — so Touch is
// O(1) instead of walking every neighbour.
//
//p3q:hotpath
func (pn *PersonalNetwork) Touch(partner tagging.UserID) {
	pn.clock++
	if e := pn.Entry(partner); e != nil {
		e.last = pn.clock
	}
}

// ResetTimestamp zeroes the partner's age without aging the others; used on
// the receiving side of a gossip.
//
//p3q:hotpath
func (pn *PersonalNetwork) ResetTimestamp(partner tagging.UserID) {
	if e := pn.Entry(partner); e != nil && e.last != pn.clock {
		e.last = pn.clock
	}
}
