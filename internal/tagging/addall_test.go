package tagging

import (
	"encoding/binary"
	"math/rand"
	"reflect"
	"testing"
)

// addEach is the definition the bulk AddAll replaced, kept as its oracle:
// one Add per action, counting the accepted ones and remembering the first
// one refused.
func addEach(p *Profile, actions []Action) (added, firstDup int) {
	firstDup = -1
	for i, a := range actions {
		if p.Add(a.Item, a.Tag) {
			added++
		} else if firstDup < 0 {
			firstDup = i
		}
	}
	return added, firstDup
}

// checkAddAll appends the batch to two copies of the same profile, in bulk
// and one action at a time, and holds the bulk copy to the other: the
// returned values, every column, and the digest of every prefix.
func checkAddAll(t *testing.T, existing, batch []Action) {
	t.Helper()
	bulk, each := NewProfile(3), NewProfile(3)
	addEach(bulk, existing)
	addEach(each, existing)

	gotN, gotDup := bulk.AddAll(batch)
	wantN, wantDup := addEach(each, batch)
	if gotN != wantN || gotDup != wantDup {
		t.Fatalf("AddAll returned (%d, %d), one Add per action (%d, %d)", gotN, gotDup, wantN, wantDup)
	}
	for _, col := range []struct {
		name      string
		got, want any
	}{
		{"log", bulk.log, each.log},
		{"keys", bulk.keys, each.keys},
		{"pos", bulk.pos, each.pos},
		{"itemsSorted", bulk.itemsSorted, each.itemsSorted},
		{"itemHashes", bulk.itemHashes, each.itemHashes},
	} {
		if !reflect.DeepEqual(col.got, col.want) {
			t.Fatalf("%s differs:\nAddAll %v\nAdd    %v", col.name, col.got, col.want)
		}
	}
	for n := 0; n <= each.Len(); n++ {
		if got, want := NewDigest(bulk.SnapshotAt(n), 256, 3), NewDigest(each.SnapshotAt(n), 256, 3); !reflect.DeepEqual(got, want) {
			t.Fatalf("digest of the first %d actions differs", n)
		}
	}
}

// TestAddAllMatchesAdd runs seeded batches against empty and non-empty
// profiles. The ID spaces are small, so a batch repeats itself and the
// profile; the sizes straddle AddAll's 128-action stack buffer.
func TestAddAllMatchesAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	draw := func(n, items, tags int) []Action {
		out := make([]Action, n)
		for i := range out {
			out[i] = Action{Item: ItemID(rng.Intn(items)), Tag: TagID(rng.Intn(tags))}
		}
		return out
	}
	for trial := 0; trial < 2000; trial++ {
		items, tags := 1+rng.Intn(60), 1+rng.Intn(8)
		var existing []Action
		if trial%2 == 1 {
			existing = draw(1+rng.Intn(150), items, tags)
		}
		size := rng.Intn(40)
		if trial%10 == 0 {
			size = 100 + rng.Intn(200)
		}
		batch := draw(size, items, tags)
		if trial%7 == 0 {
			// No repeat anywhere: the append-all path.
			batch = batch[:0]
			for i := 0; i < size; i++ {
				batch = append(batch, Action{Item: ItemID(1000 + rng.Intn(50)), Tag: TagID(1000 + i)})
			}
		}
		checkAddAll(t, existing, batch)
	}
}

// FuzzAddAll reads the profile and the batch from the input: one byte
// splits it, then every two bytes are an (item, tag) pair over small ID
// spaces, so the fuzzer finds repeats easily.
func FuzzAddAll(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 1, 1, 1})
	f.Add([]byte{2, 1, 1, 2, 2, 1, 1, 3, 3, 2, 2, 0, 9})
	f.Add(binary.BigEndian.AppendUint64([]byte{3}, 0x0101020203030101))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		actions := make([]Action, 0, len(data)/2)
		for i := 1; i+1 < len(data); i += 2 {
			actions = append(actions, Action{Item: ItemID(data[i] % 16), Tag: TagID(data[i+1] % 4)})
		}
		split := min(int(data[0]), len(actions))
		checkAddAll(t, actions[:split], actions[split:])
	})
}
