// Package idtab is the flat hash table the engine's per-node lookups share:
// the personal network's by-owner index, the lazy exchange's memo of
// versions already scored, and the incremental NRA's candidate index. All
// three map a dense 32-bit ID (a user or an item) to a small non-negative
// number and sit on the per-gossip or per-scan hot path, so the table is
// open-addressed over one flat slice: Fibonacci hashing, linear probing,
// load factor at most 3/4, and backward-shift deletion, which keeps probe
// sequences unbroken without tombstones.
package idtab

// slot is one table slot. val holds the value plus one, so 0 marks an empty
// slot and every uint32 is a legal key.
type slot struct {
	key uint32
	val int32
}

// Table maps uint32 keys to non-negative int32 values. The zero value is an
// empty table. A Table is not safe for concurrent mutation.
type Table struct {
	slots []slot // power-of-two length, or nil
	n     int    // occupied slots
}

// home returns the preferred slot of key in a table of mask+1 slots:
// Fibonacci hashing on the high product bits.
func home(key uint32, mask int) int { return int(uint64(key)*0x9e3779b97f4a7c15>>33) & mask }

// Len returns the number of keys.
func (t *Table) Len() int { return t.n }

// Get returns the value stored for key. It has its own probe loop, not a
// shared helper, so that it stays within the inliner's budget.
//
//p3q:hotpath
func (t *Table) Get(key uint32) (v int32, ok bool) {
	if t.n == 0 {
		return 0, false
	}
	mask := len(t.slots) - 1
	for i := home(key, mask); ; i = (i + 1) & mask {
		s := t.slots[i]
		if s.val == 0 {
			return 0, false
		}
		if s.key == key {
			return s.val - 1, true
		}
	}
}

// find returns the index of the slot holding key, or of the empty slot where
// it belongs. The table must be non-empty.
func (t *Table) find(key uint32) int {
	mask := len(t.slots) - 1
	i := home(key, mask)
	for t.slots[i].val != 0 && t.slots[i].key != key {
		i = (i + 1) & mask
	}
	return i
}

// Put stores v (which must be non-negative) for key and returns the value it
// replaces, if any: one probe sequence both reads and writes. The table grows
// only when a new key would load it past 3/4.
//
//p3q:hotpath
func (t *Table) Put(key uint32, v int32) (old int32, had bool) {
	if len(t.slots) == 0 {
		t.grow(1)
	}
	i := t.find(key)
	if s := &t.slots[i]; s.val != 0 {
		old, s.val = s.val-1, v+1
		return old, true
	}
	if (t.n+1)*4 > len(t.slots)*3 {
		t.grow(t.n + 1)
		i = t.find(key)
	}
	t.slots[i] = slot{key: key, val: v + 1}
	t.n++
	return 0, false
}

// Delete removes key, if present, shifting the rest of its probe run back
// over the hole.
//
//p3q:hotpath
func (t *Table) Delete(key uint32) {
	if t.n == 0 {
		return
	}
	i := t.find(key)
	if t.slots[i].val == 0 {
		return
	}
	mask := len(t.slots) - 1
	for j := (i + 1) & mask; t.slots[j].val != 0; j = (j + 1) & mask {
		// The slot at j may move into the hole at i iff that does not move
		// it before its home slot (cyclic distance check).
		if (j-home(t.slots[j].key, mask))&mask >= (j-i)&mask {
			t.slots[i] = t.slots[j]
			i = j
		}
	}
	t.slots[i] = slot{}
	t.n--
}

// Clear removes every key, keeping the table's capacity.
func (t *Table) Clear() {
	clear(t.slots)
	t.n = 0
}

// Reserve sizes the table so that it holds n keys without growing.
func (t *Table) Reserve(n int) {
	if t.slots == nil || n*4 > len(t.slots)*3 {
		t.grow(n)
	}
}

// grow rebuilds the table at the smallest power-of-two size, 8 at least,
// that holds n keys at or below half load. Deliberately not a hot path: a
// table grows O(log n) times over its lifetime.
func (t *Table) grow(n int) {
	size := 8
	for size < n*2 {
		size *= 2
	}
	old := t.slots
	t.slots = make([]slot, size)
	for _, s := range old {
		if s.val != 0 {
			t.slots[t.find(s.key)] = s
		}
	}
}

// Range calls f for every key and its value, in slot order: no order a
// caller may rely on.
func (t *Table) Range(f func(key uint32, v int32)) {
	for _, s := range t.slots {
		if s.val != 0 {
			f(s.key, s.val-1)
		}
	}
}
