package topk

import (
	"reflect"
	"slices"
	"testing"

	"p3q/internal/tagging"
)

// stateLists builds a stream of partial result lists with overlapping
// items, so the NRA keeps candidates with unresolved bounds mid-stream.
func stateLists() [][]Entry {
	return [][]Entry{
		{{Item: 1, Score: 9}, {Item: 2, Score: 7}, {Item: 3, Score: 2}},
		{{Item: 2, Score: 8}, {Item: 4, Score: 6}, {Item: 1, Score: 1}},
		{{Item: 5, Score: 5}, {Item: 3, Score: 4}, {Item: 4, Score: 3}},
		{{Item: 1, Score: 7}, {Item: 5, Score: 2}, {Item: 6, Score: 1}},
	}
}

func TestNRAStateRestoreContinuesIdentically(t *testing.T) {
	lists := stateLists()
	full := NewNRA(2)
	split := NewNRA(2)
	// Absorb the first half on both operators.
	for _, l := range lists[:2] {
		full.Run([][]Entry{l})
		split.Run([][]Entry{l})
	}
	// Round-trip the split operator through its serializable state.
	restored, err := RestoreNRA(split.State())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := restored.TopK(), full.TopK(); !equalEntries(got, want) {
		t.Fatalf("restored TopK = %v, want %v", got, want)
	}
	// The continuation must match entry for entry, including the scan-cost
	// accounting the stop condition depends on.
	for _, l := range lists[2:] {
		if got, want := restored.Run([][]Entry{l}), full.Run([][]Entry{l}); !equalEntries(got, want) {
			t.Fatalf("restored Run = %v, want %v", got, want)
		}
		if restored.ScannedEntries() != full.ScannedEntries() {
			t.Fatalf("scanned = %d, want %d", restored.ScannedEntries(), full.ScannedEntries())
		}
	}
	if got, want := restored.Drain(), full.Drain(); !equalEntries(got, want) {
		t.Fatalf("restored Drain = %v, want %v", got, want)
	}
}

// TestNRAStateSeenInIsScanOrder pins that SeenIn is scan order, not ascending
// list order: list 0 stops after its head (item 1 alone settles k = 1), list
// 1 then shows item 2 at its head, and only after that does list 0 rejoin at
// the position where it stopped and show item 2 as well.
func TestNRAStateSeenInIsScanOrder(t *testing.T) {
	n := NewNRA(1)
	n.Run([][]Entry{{{Item: 1, Score: 10}, {Item: 2, Score: 1}}})
	if got := n.ScannedEntries(); got != 1 {
		t.Fatalf("scanned %d entries of list 0, want 1", got)
	}
	n.Run([][]Entry{{{Item: 2, Score: 3}, {Item: 3, Score: 1}}})
	st := n.State()
	want := []NRACandidateState{
		{Item: 1, Worst: 10, SeenIn: []int{0}},
		{Item: 2, Worst: 4, SeenIn: []int{1, 0}},
		{Item: 3, Worst: 1, SeenIn: []int{1}},
	}
	if !reflect.DeepEqual(st.Cands, want) {
		t.Fatalf("candidates = %+v, want %+v", st.Cands, want)
	}
	restored, err := RestoreNRA(st)
	if err != nil {
		t.Fatal(err)
	}
	if got := restored.State(); !reflect.DeepEqual(got, st) {
		t.Fatalf("State -> RestoreNRA -> State = %+v, want %+v", got, st)
	}
}

func TestRestoreNRARejectsIncoherentState(t *testing.T) {
	bad := NRAState{K: 2, Lists: []NRAListState{{Entries: []Entry{{Item: 1, Score: 1}}, Pos: 2}}}
	if _, err := RestoreNRA(bad); err == nil {
		t.Fatal("accepted a cursor past the list end")
	}
	bad = NRAState{K: 2, Cands: []NRACandidateState{{Item: 1, SeenIn: []int{0}}}}
	if _, err := RestoreNRA(bad); err == nil {
		t.Fatal("accepted a candidate seen in a non-existent list")
	}
	bad = NRAState{K: 2, Cands: []NRACandidateState{{Item: 1}, {Item: 1}}}
	if _, err := RestoreNRA(bad); err == nil {
		t.Fatal("accepted duplicate candidates")
	}
}

// TestRestoreNRAFlatIndex restores operators of 0 to 10^4 candidates: the
// index grows from nothing with every item resolving to its own candidate,
// the restored operator continues exactly as the original, and a duplicated
// candidate is rejected wherever the original sits.
func TestRestoreNRAFlatIndex(t *testing.T) {
	for _, size := range []int{0, 1, 6, 7, 100, 10000} {
		list := make([]Entry, size)
		for i := range list {
			list[i] = Entry{Item: tagging.ItemID(i * 7919), Score: 1}
		}
		orig := NewNRA(3)
		orig.Run([][]Entry{list})
		orig.Drain()
		st := orig.State()
		restored, err := RestoreNRA(st)
		if err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
		for ci, c := range restored.cands {
			if got, ok := restored.index.Get(uint32(c.item)); !ok || int(got) != ci {
				t.Fatalf("size %d: item %d resolves to (%d, %v), want candidate %d", size, c.item, got, ok, ci)
			}
		}
		more := []Entry{{Item: 1, Score: 4}, {Item: 7919 * tagging.ItemID(size/2), Score: 2}, {Item: 2, Score: 1}}
		if got, want := restored.Run([][]Entry{more}), orig.Run([][]Entry{more}); !equalEntries(got, want) {
			t.Fatalf("size %d: restored Run = %v, want %v", size, got, want)
		}
		if got, want := restored.State(), orig.State(); !reflect.DeepEqual(got, want) {
			t.Fatalf("size %d: restored operator diverged after a Run", size)
		}
		for _, at := range []int{0, size / 2, size - 1} {
			if size == 0 {
				break
			}
			dup := st
			dup.Cands = append(slices.Clone(st.Cands), st.Cands[at])
			if _, err := RestoreNRA(dup); err == nil {
				t.Fatalf("size %d: accepted candidate %d twice", size, st.Cands[at].Item)
			}
		}
	}
}

// TestNRAScanOneIndexedAllocatesNothing: advancing onto an item that already
// has a candidate is one probe of the flat index and an append into room
// seenIn already has.
func TestNRAScanOneIndexedAllocatesNothing(t *testing.T) {
	n := NewNRA(2)
	n.Run([][]Entry{{{Item: 1, Score: 3}, {Item: 2, Score: 2}, {Item: 3, Score: 1}}})
	n.Drain()
	allocs := testing.AllocsPerRun(100, func() {
		n.lists[0].pos = 0
		n.cands[0].seenIn = n.cands[0].seenIn[:0]
		n.scanOne(0)
	})
	if allocs != 0 {
		t.Fatalf("scanOne on an indexed item: %v allocs, want 0", allocs)
	}
}

func equalEntries(a, b []Entry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
