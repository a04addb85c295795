package bloom

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNoFalseNegatives(t *testing.T) {
	f := New(1024, 4)
	keys := []uint64{0, 1, 42, 1 << 40, ^uint64(0)}
	for _, k := range keys {
		f.Add(k)
	}
	for _, k := range keys {
		if !f.Test(k) {
			t.Fatalf("false negative for key %d", k)
		}
	}
}

func TestNoFalseNegativesProperty(t *testing.T) {
	f := New(4096, 5)
	check := func(key uint64) bool {
		f.Add(key)
		return f.Test(key)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyFilterTestsNegative(t *testing.T) {
	f := New(1024, 4)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100; i++ {
		if f.Test(rng.Uint64()) {
			t.Fatal("empty filter returned a positive")
		}
	}
}

func TestFalsePositiveRateNearTarget(t *testing.T) {
	// The optimal geometry for n keys at p = 1%: m = -n ln p / (ln 2)^2
	// bits, k = (m/n) ln 2 hashes.
	const n = 1000
	f := New(9586, 7)
	rng := rand.New(rand.NewSource(7))
	inserted := make(map[uint64]bool, n)
	for len(inserted) < n {
		k := rng.Uint64()
		if !inserted[k] {
			inserted[k] = true
			f.Add(k)
		}
	}
	fp := 0
	const probes = 20000
	for i := 0; i < probes; i++ {
		k := rng.Uint64()
		if inserted[k] {
			continue
		}
		if f.Test(k) {
			fp++
		}
	}
	rate := float64(fp) / probes
	if rate > 0.03 {
		t.Fatalf("false positive rate %.4f, want <= 0.03 for 1%% target", rate)
	}
}

func TestPaperGeometryLowFPR(t *testing.T) {
	// §3.3.1: 20 Kbit filters keep a ~0.1% FPR for typical profiles
	// (mean 249 items, >99% of users under 2000 items).
	f := New(DefaultBits, DefaultHashes)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 500; i++ {
		f.Add(rng.Uint64())
	}
	fp := 0
	const probes = 50000
	for i := 0; i < probes; i++ {
		if f.Test(rng.Uint64()) {
			fp++
		}
	}
	rate := float64(fp) / probes
	if rate > 0.002 {
		t.Fatalf("paper-geometry FPR %.5f at 500 items, want <= 0.002", rate)
	}
}

func TestSizeBytes(t *testing.T) {
	f := New(DefaultBits, DefaultHashes)
	if got := f.SizeBytes(); got != 2560 {
		t.Fatalf("SizeBytes = %d, want 2560 (20Kbit)", got)
	}
}

func TestGeometryClamps(t *testing.T) {
	f := New(-1, 0)
	if f.Bits() < 64 {
		t.Fatalf("Bits = %d, want >= 64", f.Bits())
	}
	if f.Hashes() < 1 {
		t.Fatalf("Hashes = %d, want >= 1", f.Hashes())
	}
	g := New(65, 2)
	if g.Bits()%64 != 0 {
		t.Fatalf("Bits = %d, want a multiple of 64", g.Bits())
	}
}

func TestNewRoundsUpToWord(t *testing.T) {
	// New documents rounding m up to a multiple of 64 (the word size of
	// the backing array), never down: exact-word sizes stay put, anything
	// else lands on the next word boundary, and SizeBytes follows.
	cases := []struct{ m, wantBits int }{
		{-5, 64}, {0, 64}, {1, 64}, {63, 64}, {64, 64},
		{65, 128}, {127, 128}, {128, 128}, {129, 192},
		{2048, 2048}, {DefaultBits, DefaultBits}, {DefaultBits + 1, DefaultBits + 64},
	}
	for _, c := range cases {
		f := New(c.m, 4)
		if f.Bits() != c.wantBits {
			t.Errorf("New(%d).Bits() = %d, want %d", c.m, f.Bits(), c.wantBits)
		}
		if f.SizeBytes() != c.wantBits/8 {
			t.Errorf("New(%d).SizeBytes() = %d, want %d", c.m, f.SizeBytes(), c.wantBits/8)
		}
	}
	if f := New(64, -3); f.Hashes() != 1 {
		t.Errorf("New(64, -3).Hashes() = %d, want clamp to 1", f.Hashes())
	}
}

func TestEqual(t *testing.T) {
	a := New(1024, 4)
	b := New(1024, 4)
	if !a.Equal(b) {
		t.Fatal("two empty same-geometry filters not Equal")
	}
	a.Add(5)
	if a.Equal(b) {
		t.Fatal("filters with different contents reported Equal")
	}
	b.Add(5)
	if !a.Equal(b) {
		t.Fatal("filters with same contents not Equal")
	}
	c := New(2048, 4)
	c.Add(5)
	if a.Equal(c) {
		t.Fatal("filters with different geometry reported Equal")
	}
	if a.Equal(nil) {
		t.Fatal("Equal(nil) returned true")
	}
}

func TestReset(t *testing.T) {
	f := New(1024, 4)
	f.Add(1)
	f.Reset()
	if f.Test(1) {
		t.Fatal("Reset did not clear the filter")
	}
	if f.AddCount() != 0 {
		t.Fatalf("AddCount after Reset = %d, want 0", f.AddCount())
	}
	if f.FillRatio() != 0 {
		t.Fatalf("FillRatio after Reset = %f, want 0", f.FillRatio())
	}
}

func TestResetRestoresPostNewState(t *testing.T) {
	// Reset documents returning the filter to its post-New state: Equal to
	// a fresh filter of the same geometry, and refilling it reproduces the
	// exact bit pattern a fresh filter would — the property digest pooling
	// relies on when it reuses a filter across rebuilds.
	f := New(1024, 4)
	for i := uint64(0); i < 40; i++ {
		f.Add(i * 977)
	}
	f.Reset()
	if fresh := New(1024, 4); !f.Equal(fresh) {
		t.Fatal("Reset filter not Equal to a fresh same-geometry filter")
	}
	g := New(1024, 4)
	for i := uint64(0); i < 20; i++ {
		f.Add(i)
		g.Add(i)
	}
	if !f.Equal(g) || f.AddCount() != g.AddCount() {
		t.Fatal("refilled Reset filter diverged from a fresh filter")
	}
}

func TestAddCountTallySemantics(t *testing.T) {
	// AddCount is an insertion tally, not a distinct-key cardinality:
	// duplicates count each time.
	f := New(1024, 4)
	f.Add(7)
	f.Add(7)
	if f.AddCount() != 2 {
		t.Fatalf("AddCount after duplicate Add = %d, want 2", f.AddCount())
	}
	f.Reset()
	if f.AddCount() != 0 {
		t.Fatalf("AddCount after Reset = %d, want 0", f.AddCount())
	}
}

func TestFillRatioMonotone(t *testing.T) {
	f := New(1024, 4)
	prev := f.FillRatio()
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 50; i++ {
		f.Add(rng.Uint64())
		cur := f.FillRatio()
		if cur < prev {
			t.Fatal("FillRatio decreased after Add")
		}
		prev = cur
	}
	if prev <= 0 || prev > 1 {
		t.Fatalf("FillRatio = %f out of (0,1]", prev)
	}
}

func TestDeterministicAcrossInstances(t *testing.T) {
	a := New(2048, 5)
	b := New(2048, 5)
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 100; i++ {
		k := rng.Uint64()
		a.Add(k)
		b.Add(k)
	}
	if !a.Equal(b) {
		t.Fatal("same insertions produced different filters")
	}
}

func BenchmarkAdd(b *testing.B) {
	f := New(DefaultBits, DefaultHashes)
	for i := 0; i < b.N; i++ {
		f.Add(uint64(i))
	}
}

func BenchmarkTest(b *testing.B) {
	f := New(DefaultBits, DefaultHashes)
	for i := 0; i < 1000; i++ {
		f.Add(uint64(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Test(uint64(i))
	}
}

// TestTestHashMatchesTest pins the pre-hashed probe to Test and to Add: same
// answers for present and absent keys, at the bench geometry and at the
// paper's non-power-of-two one (where h1 + i*h2 must wrap mod 2^64 before
// the reduction mod m).
func TestTestHashMatchesTest(t *testing.T) {
	for _, m := range []int{2048, 20480} {
		for _, k := range []int{1, 6, 10} {
			f := New(m, k)
			rng := rand.New(rand.NewSource(int64(m + k)))
			added := make([]uint64, 300)
			for i := range added {
				added[i] = rng.Uint64()
				f.Add(added[i])
			}
			for _, key := range added {
				if !f.TestHash(HashKey(key)) {
					t.Fatalf("m=%d k=%d: TestHash misses added key %#x", m, k, key)
				}
			}
			for i := 0; i < 20000; i++ {
				// Small and huge keys: item IDs are small, the wrap needs big hashes.
				key := rng.Uint64() >> uint(rng.Intn(64))
				if got, want := f.TestHash(HashKey(key)), f.Test(key); got != want {
					t.Fatalf("m=%d k=%d: TestHash(%#x) = %v, Test = %v", m, k, key, got, want)
				}
			}
		}
	}
}

func TestTestHashDoesNotAllocate(t *testing.T) {
	f := New(DefaultBits, DefaultHashes)
	f.Add(1)
	h := HashKey(1)
	if n := testing.AllocsPerRun(100, func() { f.TestHash(h) }); n != 0 {
		t.Fatalf("TestHash allocates %v times per call", n)
	}
}

func BenchmarkBloomTestHash(b *testing.B) {
	f := New(DefaultBits, DefaultHashes)
	hashes := make([]KeyHash, 1024)
	for i := range hashes {
		f.Add(uint64(i))
		hashes[i] = HashKey(uint64(2 * i)) // half present, half absent
	}
	hits := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if f.TestHash(hashes[i%len(hashes)]) {
			hits++
		}
	}
	benchSink = hits
}

var benchSink int
