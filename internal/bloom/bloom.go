// Package bloom implements the Bloom filter used by P3Q to encode profile
// digests. Per §2.1 of the paper, "a digest of profile is also stored along
// with each neighbour ... encoded using a Bloom filter and only contains the
// items tagged by each user"; the evaluation (§3.3.1) uses 20 Kbit filters
// for a false-positive rate around 0.1%.
//
// The implementation follows Bloom's original construction with the standard
// double-hashing scheme of Kirsch & Mitzenmacher: the k indexes are derived
// from two 64-bit hashes h1 + i*h2. Keys are 64-bit values; callers hash
// their domain objects into uint64 first (tagging item IDs are widened
// directly, then mixed).
package bloom

// DefaultBits is the filter size used by the paper's evaluation: 20 Kbit
// (2.5 KB), which yields roughly 0.1% false positives for profiles of up to
// about 2,000 items with 10 hash functions.
const DefaultBits = 20 * 1024

// DefaultHashes is the number of hash functions paired with DefaultBits.
const DefaultHashes = 10

// Filter is a fixed-size Bloom filter. The zero value is not usable; create
// filters with New. Filter is not safe for concurrent mutation.
type Filter struct {
	bits []uint64
	m    uint64 // number of bits
	k    int    // number of hash functions
}

// New returns a filter with m bits and k hash functions. m is rounded up to
// a multiple of 64; m < 64 becomes 64, and k < 1 becomes 1.
func New(m int, k int) *Filter {
	if m < 64 {
		m = 64
	}
	if k < 1 {
		k = 1
	}
	words := (m + 63) / 64
	return &Filter{
		bits: make([]uint64, words),
		m:    uint64(words * 64),
		k:    k,
	}
}

// mix64 is the splitmix64 finalizer, a high-quality 64-bit mixing function.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// KeyHash is the double-hashing pair of one key. It depends on the key
// alone, not on any filter's geometry, so a caller that tests the same keys
// against many filters (a profile's items against every offered digest)
// hashes each key once with HashKey and probes with TestHash.
type KeyHash struct{ h1, h2 uint64 }

// HashKey derives the double-hashing pair for a key.
func HashKey(key uint64) KeyHash {
	return KeyHash{
		h1: mix64(key),
		h2: mix64(key^0x9e3779b97f4a7c15) | 1, // odd, so the probe sequence covers the table
	}
}

// Add inserts the key into the filter.
func (f *Filter) Add(key uint64) {
	h := HashKey(key)
	for i := 0; i < f.k; i++ {
		idx := (h.h1 + uint64(i)*h.h2) % f.m
		f.bits[idx/64] |= 1 << (idx % 64)
	}
}

// Test reports whether the key may be in the filter. False positives are
// possible; false negatives are not.
func (f *Filter) Test(key uint64) bool { return f.TestHash(HashKey(key)) }

// TestHash is Test for a pre-hashed key, probing the bits Add set: h1 + i*h2
// wraps mod 2^64 before the reduction mod m, so it is valid for any m.
//
//p3q:hotpath
func (f *Filter) TestHash(h KeyHash) bool {
	for i := 0; i < f.k; i++ {
		idx := (h.h1 + uint64(i)*h.h2) % f.m
		if f.bits[idx/64]&(1<<(idx%64)) == 0 {
			return false
		}
	}
	return true
}

// SizeBytes returns the wire size of the filter in bytes. This is the figure
// used for digest bandwidth accounting.
func (f *Filter) SizeBytes() int { return int(f.m) / 8 }

// Reset clears all bits, returning the filter to its post-New state while
// keeping the geometry (and the backing allocation) intact.
func (f *Filter) Reset() {
	for i := range f.bits {
		f.bits[i] = 0
	}
}
