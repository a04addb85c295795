package core

import (
	"math/rand"
	"slices"
	"testing"

	"p3q/internal/tagging"
)

// checkMemo compares the memo with its plain-map model: every get over the
// ID range, and the sorted export.
func checkMemo(t *testing.T, m *evalMemo, model map[tagging.UserID]int, ids int) {
	t.Helper()
	for id := tagging.UserID(0); int(id) < ids; id++ {
		want, wantOK := model[id]
		if got, ok := m.get(id); ok != wantOK || got != want {
			t.Fatalf("get(%d) = (%d, %v), model (%d, %v)", id, got, ok, want, wantOK)
		}
	}
	out := m.appendSorted([]evalSlot{{key: 9999}}, &memoOrder{})[1:]
	if len(out) != len(model) || m.n != len(model) {
		t.Fatalf("export holds %d entries (n=%d), model %d", len(out), m.n, len(model))
	}
	if !slices.IsSortedFunc(out, func(a, b evalSlot) int { return int(a.key) - int(b.key) }) {
		t.Fatalf("export not in ascending owner order: %v", out)
	}
	for _, s := range out {
		if v, ok := model[tagging.UserID(s.key-1)]; !ok || v != int(s.version) {
			t.Fatalf("export entry (owner %d, version %d) not in the model", s.key-1, s.version)
		}
	}
}

func TestEvalMemoMatchesMapModel(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		var m evalMemo
		model := map[tagging.UserID]int{}
		ids := 1 + rng.Intn(600)
		checkMemo(t, &m, model, ids) // the zero value is an empty memo
		for round := 0; round < 3; round++ {
			// Sets with overwrites, through several table growths.
			for i, sets := 0, rng.Intn(2*ids); i < sets; i++ {
				id, v := tagging.UserID(rng.Intn(ids)), rng.Intn(1000)
				m.set(id, v)
				model[id] = v
			}
			checkMemo(t, &m, model, ids)
			if len(m.slots) > 0 && m.n*4 > len(m.slots)*3 {
				t.Fatalf("load factor above 3/4: %d of %d slots", m.n, len(m.slots))
			}
			if round == 1 {
				size := len(m.slots)
				m.reset()
				clear(model)
				checkMemo(t, &m, model, ids)
				if len(m.slots) != size {
					t.Fatalf("reset dropped the table: %d -> %d slots", size, len(m.slots))
				}
			}
		}
	}
}

// TestEvalMemoReserve is the restore path: grow once to the known count,
// then fill without another growth.
func TestEvalMemoReserve(t *testing.T) {
	for _, n := range []int{1, 5, 6, 7, 100, 1000} {
		var m evalMemo
		m.grow(n)
		size := len(m.slots)
		for i := 0; i < n; i++ {
			m.set(tagging.UserID(i*7), i)
		}
		if len(m.slots) != size {
			t.Fatalf("n=%d: table grew from %d to %d slots after the reserve", n, size, len(m.slots))
		}
	}
}

func TestEvalMemoGetDoesNotAllocate(t *testing.T) {
	var m evalMemo
	for i := 0; i < 500; i++ {
		m.set(tagging.UserID(i*3), i)
	}
	if n := testing.AllocsPerRun(100, func() {
		m.get(42)
		m.get(43)
		m.set(42, 7) // overwrite: no growth
	}); n != 0 {
		t.Fatalf("memo get/overwrite allocates %v times per run", n)
	}
}

// BenchmarkEvalMemo times the plan-phase mix on a memo of the size a
// 5000-user run builds up: mostly hits and misses, some new owners.
func BenchmarkEvalMemo(b *testing.B) {
	var m evalMemo
	for i := 0; i < 2000; i++ {
		m.set(tagging.UserID(i*2), i)
	}
	hits := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := tagging.UserID(i % 5000)
		if _, ok := m.get(id); ok {
			hits++
		} else if i%16 == 0 {
			m.set(id, i&0xffff)
		}
	}
	benchSink = hits
}

var benchSink int
