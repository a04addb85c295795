package idtab

import (
	"math"
	"math/rand"
	"testing"
)

// checkTable compares the table with its plain-map model: the key count, a
// Get of every model key and of probe keys, what Range visits, and the load
// bound.
func checkTable(t *testing.T, tab *Table, model map[uint32]int32, probes []uint32) {
	t.Helper()
	if tab.n != len(model) {
		t.Fatalf("n = %d, model %d", tab.n, len(model))
	}
	for _, k := range probes {
		want, wantOK := model[k]
		if got, ok := tab.Get(k); ok != wantOK || got != want {
			t.Fatalf("Get(%d) = (%d, %v), model (%d, %v)", k, got, ok, want, wantOK)
		}
	}
	seen := 0
	tab.Range(func(k uint32, v int32) {
		if want, ok := model[k]; !ok || want != v {
			t.Fatalf("Range visits (%d, %d), model (%d, %v)", k, v, want, ok)
		}
		seen++
	})
	if seen != len(model) {
		t.Fatalf("Range visits %d keys, model %d", seen, len(model))
	}
	if tab.n*4 > len(tab.slots)*3 {
		t.Fatalf("load factor above 3/4: %d of %d slots", tab.n, len(tab.slots))
	}
}

// keyspaces draw keys from a small dense range, from a cluster around one
// base (neighbouring keys, neighbouring home slots), and from the whole
// uint32 range with its two ends mixed in.
var keyspaces = []struct {
	name string
	draw func(rng *rand.Rand) uint32
}{
	{"dense", func(rng *rand.Rand) uint32 { return uint32(rng.Intn(600)) }},
	{"cluster", func(rng *rand.Rand) uint32 { return 1<<24 + uint32(rng.Intn(64))*16 }},
	{"wide", func(rng *rand.Rand) uint32 {
		switch rng.Intn(8) {
		case 0:
			return 0
		case 1:
			return math.MaxUint32
		}
		return rng.Uint32()
	}},
}

func TestTableMatchesMapModel(t *testing.T) {
	for _, ks := range keyspaces {
		rng := rand.New(rand.NewSource(11))
		for trial := 0; trial < 30; trial++ {
			var tab Table
			model := map[uint32]int32{}
			probes := []uint32{0, math.MaxUint32}
			for i := 0; i < 64; i++ {
				probes = append(probes, ks.draw(rng))
			}
			checkTable(t, &tab, model, probes) // the zero value is an empty table
			ops := 1 + rng.Intn(1500)
			for round := 0; round < 3; round++ {
				// Puts with overwrites through several growths, deletes of
				// present and absent keys.
				for i := 0; i < ops; i++ {
					k := ks.draw(rng)
					if rng.Intn(4) == 0 {
						tab.Delete(k)
						delete(model, k)
						continue
					}
					v := int32(rng.Intn(math.MaxInt32))
					wantOld, wantHad := model[k]
					if old, had := tab.Put(k, v); had != wantHad || old != wantOld {
						t.Fatalf("%s: Put(%d) returned (%d, %v), model (%d, %v)", ks.name, k, old, had, wantOld, wantHad)
					}
					model[k] = v
					probes = append(probes, k)
				}
				checkTable(t, &tab, model, probes)
				if round == 1 {
					size := len(tab.slots)
					tab.Clear()
					clear(model)
					checkTable(t, &tab, model, probes)
					if len(tab.slots) != size {
						t.Fatalf("%s: Clear dropped the table: %d -> %d slots", ks.name, size, len(tab.slots))
					}
				}
			}
		}
	}
}

// FuzzTable runs the same model comparison on operations read from the
// input: three bytes each, an opcode and a key taken from a narrow space so
// that probe runs collide and wrap.
func FuzzTable(f *testing.F) {
	f.Add([]byte{})
	for seed := int64(1); seed <= 16; seed++ {
		b := make([]byte, 300)
		rand.New(rand.NewSource(seed)).Read(b)
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var tab Table
		model := map[uint32]int32{}
		var probes []uint32
		for ; len(data) >= 3; data = data[3:] {
			k := uint32(data[1]) | uint32(data[2]&3)<<8
			if data[2]&4 != 0 {
				k = math.MaxUint32 - k
			}
			probes = append(probes, k)
			switch data[0] % 8 {
			case 0, 1:
				tab.Delete(k)
				delete(model, k)
			case 2:
				tab.Clear()
				clear(model)
			default:
				v := int32(data[0]) << 16
				wantOld, wantHad := model[k]
				if old, had := tab.Put(k, v); had != wantHad || old != wantOld {
					t.Fatalf("Put(%d) returned (%d, %v), model (%d, %v)", k, old, had, wantOld, wantHad)
				}
				model[k] = v
			}
		}
		checkTable(t, &tab, model, probes)
	})
}

// TestTableReserve is the restore path: reserve once for the known count,
// then fill without another growth.
func TestTableReserve(t *testing.T) {
	for _, n := range []int{0, 1, 5, 6, 7, 100, 1000} {
		var tab Table
		tab.Reserve(n)
		size := len(tab.slots)
		for i := 0; i < n; i++ {
			tab.Put(uint32(i*7), int32(i))
		}
		if len(tab.slots) != size {
			t.Fatalf("n=%d: table grew from %d to %d slots after the reserve", n, size, len(tab.slots))
		}
	}
}

func TestTableDoesNotAllocate(t *testing.T) {
	var tab Table
	for i := 0; i < 500; i++ {
		tab.Put(uint32(i*3), int32(i))
	}
	if n := testing.AllocsPerRun(100, func() {
		tab.Get(42)
		tab.Get(43)
		tab.Put(42, 7) // overwrite: no growth
		tab.Delete(45)
		tab.Put(45, 15) // back into the slot the delete freed
	}); n != 0 {
		t.Fatalf("Get, overwriting Put and Delete allocate %v times per run", n)
	}
}

// BenchmarkTable times the lazy planner's mix on a table of the size a
// 5000-user run builds up per node: mostly hits and misses, some new keys.
func BenchmarkTable(b *testing.B) {
	var tab Table
	for i := 0; i < 2000; i++ {
		tab.Put(uint32(i*2), int32(i))
	}
	hits := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := uint32(i % 5000)
		if _, ok := tab.Get(k); ok {
			hits++
		} else if i%16 == 0 {
			tab.Put(k, int32(i&0xffff))
		}
	}
	benchSink = hits
}

var benchSink int
