// Package tagging defines the data model of a collaborative tagging system
// as used by the P3Q protocol (Bai et al., EDBT 2010): users, items, tags,
// tagging actions, and user profiles.
//
// A profile is the set of tagging actions performed by one user. P3Q scores
// the similarity between two users as the number of common tagging actions,
// i.e. the number of (item, tag) pairs present in both profiles.
//
// Profiles are append-only: a tagging action, once performed, is never
// removed (the paper's dynamics only ever add actions). This makes a
// consistent point-in-time replica of a profile representable as a prefix of
// the owner's action log; see Snapshot.
package tagging

import (
	"cmp"
	"fmt"
	"slices"

	"p3q/internal/bloom"
)

// UserID identifies a user (and, in the simulated network, the node run by
// that user). IDs are dense: a dataset with n users uses IDs 0..n-1.
type UserID uint32

// ItemID identifies an item (URL, photo, video...). In the byte-accounting
// model an item is identified on the wire by a 128-bit hash (see ItemBytes).
type ItemID uint32

// TagID identifies a tag. Tags are interned strings; see Vocabulary.
type TagID uint32

// Action is a single tagging action: "the profile owner tagged Item with
// Tag". The owner is implicit (the profile the action belongs to).
type Action struct {
	Item ItemID
	Tag  TagID
}

// Key packs the (item, tag) pair into a single comparable 64-bit key.
func (a Action) Key() uint64 { return uint64(a.Item)<<32 | uint64(a.Tag) }

// ActionFromKey is the inverse of Action.Key.
func ActionFromKey(k uint64) Action {
	return Action{Item: ItemID(k >> 32), Tag: TagID(k & 0xffffffff)}
}

// Profile is the append-only tagging history of one user.
//
// Beside the log the profile keeps two sorted columns, maintained by Add,
// that every membership test and similarity score runs on:
//
//   - the action-key column: Action.Key() of every logged action in
//     ascending order, with the log position of each key beside it. Keys
//     order by (item, tag), so one item's actions are one contiguous run,
//     and a Snapshot of the first n actions is the column filtered by
//     pos < n;
//   - the item column: the distinct items in ascending order, each with its
//     Bloom double-hash pair, so testing the own items against an offered
//     digest never re-hashes them.
//
// The zero value is not usable; create profiles with NewProfile. Profile is
// not safe for concurrent mutation; concurrent readers are safe as long as
// no writer is active.
type Profile struct {
	owner UserID
	log   []Action // append-only action log

	keys []uint64 // action keys, ascending
	pos  []int32  // pos[i] is the log position of keys[i]

	itemsSorted []ItemID        // distinct items, ascending
	itemHashes  []bloom.KeyHash // itemHashes[i] is the Bloom pair of itemsSorted[i]
}

// NewProfile returns an empty profile owned by the given user.
func NewProfile(owner UserID) *Profile { return &Profile{owner: owner} }

// Owner returns the user owning this profile.
func (p *Profile) Owner() UserID { return p.owner }

// Len returns the number of tagging actions in the profile. The paper calls
// this the "length" of the profile and uses it as the storage metric.
func (p *Profile) Len() int { return len(p.log) }

// Version returns a monotonically increasing version number, incremented by
// every successful Add. Because profiles are append-only the version equals
// the profile length; replicas compare versions to detect staleness.
func (p *Profile) Version() int { return len(p.log) }

// NumItems returns the number of distinct items tagged in the profile.
func (p *Profile) NumItems() int { return len(p.itemsSorted) }

// Add records the action (item, tag). It returns false if the exact action
// was already present (a user tagging the same item with the same tag twice
// is a no-op, as in delicious).
func (p *Profile) Add(item ItemID, tag TagID) bool {
	a := Action{Item: item, Tag: tag}
	k := a.Key()
	i, dup := slices.BinarySearch(p.keys, k)
	if dup {
		return false
	}
	// The item is new iff neither neighbour of the insertion point belongs
	// to its run.
	newItem := (i == 0 || keyItem(p.keys[i-1]) != item) && (i == len(p.keys) || keyItem(p.keys[i]) != item)
	p.keys = slices.Insert(p.keys, i, k)
	p.pos = slices.Insert(p.pos, i, int32(len(p.log)))
	p.log = append(p.log, a)
	if newItem {
		j, _ := slices.BinarySearch(p.itemsSorted, item)
		p.itemsSorted = slices.Insert(p.itemsSorted, j, item)
		p.itemHashes = slices.Insert(p.itemHashes, j, bloom.HashKey(itemKey(item)))
	}
	return true
}

// keyItem is the item half of an action key.
func keyItem(k uint64) ItemID { return ItemID(k >> 32) }

// keyed is one action of an AddAll batch: its key and its index in the
// batch, then its offset in the log.
type keyed struct {
	key uint64
	idx int32
}

// AddAll records the actions in order, skipping every one the profile holds
// already or the batch held earlier, and leaves the profile exactly as one
// Add per action would. It returns the number added and the batch index of
// the first action skipped, -1 when none was.
//
// It is the bulk builder (a checkpoint, a trace file or a change-set
// arriving whole): the batch is sorted once and merged into the action-key
// column in one pass, where Add shifts the column once per action.
func (p *Profile) AddAll(actions []Action) (added, firstDup int) {
	var small [128]keyed
	batch := small[:0]
	if len(actions) > len(small) {
		batch = make([]keyed, 0, len(actions))
	}
	for i, a := range actions {
		batch = append(batch, keyed{a.Key(), int32(i)})
	}
	// By key, equal keys in batch order: the first of them is the one to keep.
	slices.SortFunc(batch, func(a, b keyed) int {
		if c := cmp.Compare(a.key, b.key); c != 0 {
			return c
		}
		return cmp.Compare(a.idx, b.idx)
	})
	kept := batch[:0]
	for i, j := 0, 0; i < len(batch); i++ {
		b := batch[i]
		j = gallop(p.keys, j, b.key)
		if (j == len(p.keys) || p.keys[j] != b.key) && (len(kept) == 0 || kept[len(kept)-1].key != b.key) {
			kept = append(kept, b)
		}
	}

	base := len(p.log)
	firstDup = -1
	if len(kept) == len(actions) {
		p.log = append(p.log, actions...)
	} else {
		// The log takes the kept actions in batch order, and a kept action's
		// offset in it is its rank among them.
		rank := make([]int32, len(actions))
		for _, b := range kept {
			rank[b.idx] = 1
		}
		for i, a := range actions {
			if rank[i] == 0 {
				if firstDup < 0 {
					firstDup = i
				}
				continue
			}
			rank[i] = int32(len(p.log) - base)
			p.log = append(p.log, a)
		}
		for i := range kept {
			kept[i].idx = rank[kept[i].idx]
		}
	}

	// Merge the kept keys into the action-key column from the back, in place.
	n, m := len(p.keys), len(kept)
	p.keys = slices.Grow(p.keys, m)[:n+m]
	p.pos = slices.Grow(p.pos, m)[:n+m]
	for i, j, k := n-1, m-1, n+m-1; j >= 0; k-- {
		if i >= 0 && p.keys[i] > kept[j].key {
			p.keys[k], p.pos[k] = p.keys[i], p.pos[i]
			i--
		} else {
			p.keys[k], p.pos[k] = kept[j].key, int32(base)+kept[j].idx
			j--
		}
	}

	// An item's keys are one run of kept, and the items ascend: into an empty
	// profile every insertion below is an append. The new items are counted
	// first, so the columns grow once and every insertion is in place.
	fresh := 0
	for i := 0; i < m; i = nextItemRun(kept, i) {
		if _, has := slices.BinarySearch(p.itemsSorted, keyItem(kept[i].key)); !has {
			fresh++
		}
	}
	p.itemsSorted = slices.Grow(p.itemsSorted, fresh)
	p.itemHashes = slices.Grow(p.itemHashes, fresh)
	for i := 0; i < m; i = nextItemRun(kept, i) {
		it := keyItem(kept[i].key)
		if j, has := slices.BinarySearch(p.itemsSorted, it); !has {
			p.itemsSorted = slices.Insert(p.itemsSorted, j, it)
			p.itemHashes = slices.Insert(p.itemHashes, j, bloom.HashKey(itemKey(it)))
		}
	}
	return m, firstDup
}

// nextItemRun returns the index of the first key in kept (ascending) past
// the run of keys sharing kept[i]'s item.
func nextItemRun(kept []keyed, i int) int {
	it := keyItem(kept[i].key)
	for i < len(kept) && keyItem(kept[i].key) == it {
		i++
	}
	return i
}

// Has reports whether the profile contains the exact action (item, tag).
//
//p3q:hotpath
func (p *Profile) Has(item ItemID, tag TagID) bool {
	_, ok := slices.BinarySearch(p.keys, Action{Item: item, Tag: tag}.Key())
	return ok
}

// HasItem reports whether the profile contains any action on the item.
//
//p3q:hotpath
func (p *Profile) HasItem(item ItemID) bool {
	_, ok := slices.BinarySearch(p.itemsSorted, item)
	return ok
}

// Actions returns the action log. The returned slice must not be modified;
// it aliases the profile's internal storage.
func (p *Profile) Actions() []Action { return p.log }

// Items returns the distinct items in the profile, in ascending order. The
// returned slice aliases the profile's internal storage and must not be
// modified.
//
//p3q:hotpath
func (p *Profile) Items() []ItemID { return p.itemsSorted }

// TagsFor returns the tags the owner used on the item, in log order.
func (p *Profile) TagsFor(item ItemID) []TagID {
	var out []TagID
	for _, a := range p.log {
		if a.Item == item {
			out = append(out, a.Tag)
		}
	}
	return out
}

// Snapshot returns a point-in-time view of the profile containing its first
// Version() actions. The snapshot stays consistent even if the owner keeps
// appending actions afterwards.
func (p *Profile) Snapshot() Snapshot { return Snapshot{p: p, n: len(p.log)} }

// SnapshotAt returns a view of the first n actions. n is clamped to
// [0, Len()].
func (p *Profile) SnapshotAt(n int) Snapshot {
	if n < 0 {
		n = 0
	}
	if n > len(p.log) {
		n = len(p.log)
	}
	return Snapshot{p: p, n: n}
}

// gallop returns the first index i >= from with keys[i] >= target (len(keys)
// when there is none): an exponential probe forward from the cursor, then a
// binary search inside the bracket. A merge that only ever moves its cursors
// forward pays O(log distance) per step instead of O(log len).
//
//p3q:hotpath
func gallop(keys []uint64, from int, target uint64) int {
	if from >= len(keys) || keys[from] >= target {
		return from
	}
	// Invariant: keys[lo] < target.
	lo, step := from, 1
	for lo+step < len(keys) && keys[lo+step] < target {
		lo += step
		step *= 2
	}
	hi := lo + step
	if hi > len(keys) {
		hi = len(keys)
	}
	// keys[lo] < target, and hi == len(keys) or keys[hi] >= target.
	for lo+1 < hi {
		mid := int(uint(lo+hi) >> 1)
		if keys[mid] < target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}

// CommonScore returns the P3Q similarity score between this profile and the
// snapshot: the number of tagging actions present in both,
//
//	Score(ui, uj) = |Profile(ui) ∩ Profile(uj)|.
//
// It is a merge of the two action-key columns in which each side gallops
// over the other's gaps, O(min·log(max/min)) for columns of unequal length.
// The score is symmetric: p.CommonScore(q.Snapshot()) equals
// q.CommonScore(p.Snapshot()).
//
//p3q:hotpath
func (p *Profile) CommonScore(other Snapshot) int {
	a, b, bpos := p.keys, other.p.keys, other.p.pos
	score := 0
	for i, j := 0, 0; i < len(a) && j < len(b); {
		switch {
		case a[i] < b[j]:
			i = gallop(a, i+1, b[j])
		case a[i] > b[j]:
			j = gallop(b, j+1, a[i])
		default:
			if int(bpos[j]) < other.n {
				score++
			}
			i++
			j++
		}
	}
	return score
}

// CommonItems returns the items present in both this profile and the
// snapshot, in ascending order.
func (p *Profile) CommonItems(other Snapshot) []ItemID {
	var out []ItemID
	for _, it := range p.itemsSorted {
		if other.HasItem(it) {
			out = append(out, it)
		}
	}
	return out
}

// String implements fmt.Stringer for debugging.
func (p *Profile) String() string {
	return fmt.Sprintf("profile(user=%d actions=%d items=%d)", p.owner, len(p.log), len(p.itemsSorted))
}

// Snapshot is an immutable point-in-time view of a profile: its first n
// actions. Snapshots are values; copying them is cheap (two words). A
// snapshot taken from a profile remains valid and unchanged while the owner
// appends more actions, which is exactly the semantics of a replica stored
// at a remote node in P3Q.
type Snapshot struct {
	p *Profile
	n int
}

// Owner returns the user owning the underlying profile.
func (s Snapshot) Owner() UserID { return s.p.owner }

// Len returns the number of actions visible in the snapshot.
func (s Snapshot) Len() int { return s.n }

// Version returns the profile version the snapshot was taken at, equal to
// Len. Comparing against the owner's current Version detects staleness.
func (s Snapshot) Version() int { return s.n }

// Valid reports whether the snapshot refers to an actual profile (the zero
// Snapshot is not valid).
func (s Snapshot) Valid() bool { return s.p != nil }

// fresh reports whether the snapshot sees the whole profile, in which case
// the pos < n filter passes everything.
func (s Snapshot) fresh() bool { return s.n == len(s.p.log) }

// Actions returns the visible prefix of the action log. The returned slice
// must not be modified.
func (s Snapshot) Actions() []Action { return s.p.log[:s.n] }

// Has reports whether the snapshot contains the exact action.
func (s Snapshot) Has(item ItemID, tag TagID) bool {
	i, ok := slices.BinarySearch(s.p.keys, Action{Item: item, Tag: tag}.Key())
	return ok && int(s.p.pos[i]) < s.n
}

// HasItem reports whether the snapshot contains any action on the item: a
// search of the item column when the snapshot is fresh, of the item's run in
// the action-key column (for a visible position) when it is stale.
func (s Snapshot) HasItem(item ItemID) bool {
	if s.fresh() {
		return s.p.HasItem(item)
	}
	keys := s.p.keys
	for i, _ := slices.BinarySearch(keys, uint64(item)<<32); i < len(keys) && keyItem(keys[i]) == item; i++ {
		if int(s.p.pos[i]) < s.n {
			return true
		}
	}
	return false
}

// Items returns the distinct items visible in the snapshot, ascending. A
// fresh snapshot returns the profile's item column (aliased, do not modify);
// a stale one a new slice.
func (s Snapshot) Items() []ItemID {
	if s.fresh() {
		return s.p.itemsSorted
	}
	return s.appendItems(nil)
}

// appendItems appends the items visible in the snapshot to dst, ascending:
// one pass over the action-key column, keeping each item run that holds a
// visible position.
func (s Snapshot) appendItems(dst []ItemID) []ItemID {
	keys, pos := s.p.keys, s.p.pos
	for i := 0; i < len(keys); {
		it, visible := keyItem(keys[i]), false
		for ; i < len(keys) && keyItem(keys[i]) == it; i++ {
			visible = visible || int(pos[i]) < s.n
		}
		if visible {
			dst = append(dst, it)
		}
	}
	return dst
}

// ScoreOnItems is step 2 of Algorithm 1 in one pass: "require her tagging
// actions for the common items" and count the common actions. For the
// ascending item list it returns received, the number of the snapshot's
// actions on those items (the step-2 payload), and score, how many of them q
// contains too. Items absent from the snapshot (Bloom false positives of the
// common-item estimate) contribute nothing.
//
// Both action-key columns are walked with forward-only galloping cursors —
// the items ascend, and so do the keys inside an item's run — which makes
// the cost O(len(items)·log(profile length) + matches) rather than a scan of
// the whole snapshot per item.
//
//p3q:hotpath
func (s Snapshot) ScoreOnItems(q *Profile, items []ItemID) (received, score int) {
	keys, pos, qkeys := s.p.keys, s.p.pos, q.keys
	i, j := 0, 0
	for _, it := range items {
		for i = gallop(keys, i, uint64(it)<<32); i < len(keys) && keyItem(keys[i]) == it; i++ {
			if int(pos[i]) >= s.n {
				continue
			}
			received++
			if j = gallop(qkeys, j, keys[i]); j < len(qkeys) && qkeys[j] == keys[i] {
				score++
			}
		}
	}
	return received, score
}
