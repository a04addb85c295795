// Package randx provides the deterministic randomness substrate for the
// simulator: a splittable seeded source plus the samplers the experiments
// need (bounded Zipf for long-tail popularity, Poisson for the heterogeneous
// storage scenarios of Table 1, log-normal for profile sizes).
//
// Determinism contract: every run of an experiment derives all of its
// randomness from a single root seed through Split, so identical seeds and
// parameters reproduce identical outputs, independent of map iteration
// order or goroutine scheduling.
package randx

import (
	"math"
	"math/rand"
)

// Source is a deterministic random source based on splitmix64. It
// implements rand.Source64 so it can back a math/rand.Rand, and it supports
// deterministic splitting into independent child sources.
type Source struct {
	state uint64
}

// NewSource returns a source seeded with the given value.
func NewSource(seed uint64) *Source { return &Source{state: seed} }

// next advances the splitmix64 state and returns the next value.
func (s *Source) next() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Uint64 implements rand.Source64.
func (s *Source) Uint64() uint64 { return s.next() }

// Int63 implements rand.Source.
func (s *Source) Int63() int64 { return int64(s.next() >> 1) }

// Seed implements rand.Source.
func (s *Source) Seed(seed int64) { s.state = uint64(seed) }

// State exposes the source's internal splitmix64 state for checkpointing.
// NewSource(state) reconstructs a source that continues the exact same
// stream: the constructor stores its seed verbatim, so save/restore is a
// plain round trip through State.
func (s *Source) State() uint64 { return s.state }

// Restore reconstructs a source whose stream continues exactly where a
// source with the given State left off: the state is stored verbatim, so
// Restore(s.State()) is a perfect round trip. The checkpoint codec pairs
// it with State; the snapshotcomplete analyzer verifies the pair covers
// every Source field.
func Restore(state uint64) *Source { return &Source{state: state} }

// Split derives an independent child source from this source and a label.
// Two children split with different labels from the same parent state are
// statistically independent; splitting does not advance the parent, so the
// set of children is a pure function of (parent state, label).
func (s *Source) Split(label uint64) *Source {
	c := s.Derive(label)
	return &c
}

// Derive is Split returning the child by value: the same state derivation,
// but the caller decides where the child lives. The engine's planners derive
// per-plan streams into pooled plan slots, so a cycle's thousands of splits
// stop being thousands of heap allocations.
//
//p3q:hotpath
func (s *Source) Derive(label uint64) Source {
	z := s.state ^ (label * 0xd6e8feb86659fd93)
	z = (z ^ (z >> 32)) * 0xd6e8feb86659fd93
	z = (z ^ (z >> 32)) * 0xd6e8feb86659fd93
	return Source{state: z ^ (z >> 32)}
}

// Rand wraps the source in a math/rand.Rand for use with the standard
// library's distribution helpers. The returned Rand shares this source's
// state: draws through it advance the source.
func (s *Source) Rand() *rand.Rand { return rand.New(s) }

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("randx: Intn with n <= 0")
	}
	return int(s.next() % uint64(n)) // negligible modulo bias for our n
}

// Float64 returns a uniform float64 in [0, 1).
func (s *Source) Float64() float64 {
	return float64(s.next()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (s *Source) Bool(p float64) bool { return s.Float64() < p }

// Shuffle permutes the n elements using the supplied swap function
// (Fisher-Yates).
func (s *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		swap(i, j)
	}
}

// PermInto writes a random permutation of [0, n) into dst (reusing its
// capacity) and returns it.
//
//p3q:hotpath
func (s *Source) PermInto(dst []int, n int) []int {
	dst = dst[:0]
	for i := 0; i < n; i++ {
		dst = append(dst, i)
	}
	s.Shuffle(n, func(i, j int) { dst[i], dst[j] = dst[j], dst[i] })
	return dst
}

// Sample returns k distinct values drawn uniformly from [0, n) in random
// order. If k >= n it returns a permutation of all n values.
func (s *Source) Sample(n, k int) []int {
	var sp Sampler
	return sp.Sample(s, n, k)
}

// Sampler owns the scratch buffers of Sample so hot callers can draw
// distinct-index samples every cycle without allocating. The zero value is
// ready to use; buffers grow to the largest (n, k) seen and are reused.
// A Sampler is not safe for concurrent use — embed one per planner-owned
// plan slot.
type Sampler struct {
	chosen []int
	// remapK/remapV record the displaced positions of the partial
	// Fisher-Yates (the role the old implementation gave a per-call map):
	// remapV[i] is the value currently living at virtual position
	// remapK[i]. k is small everywhere Sample is used (view capacities,
	// digest batches, split sizes), so a linear scan beats a map — and
	// allocates nothing once warm.
	remapK, remapV []int
}

// lookup returns the value at virtual position j.
func (sp *Sampler) lookup(j int) int {
	for i, k := range sp.remapK {
		if k == j {
			return sp.remapV[i]
		}
	}
	return j
}

// set records that virtual position j now holds v.
func (sp *Sampler) set(j, v int) {
	for i, k := range sp.remapK {
		if k == j {
			sp.remapV[i] = v
			return
		}
	}
	sp.remapK = append(sp.remapK, j)
	sp.remapV = append(sp.remapV, v)
}

// Sample returns k distinct values drawn uniformly from [0, n) in random
// order, drawing from src. The draw sequence and results are identical to
// Source.Sample; the returned slice aliases the sampler's scratch and is
// valid until the next call. If k >= n it returns a permutation of all n
// values.
//
//p3q:hotpath
func (sp *Sampler) Sample(src *Source, n, k int) []int {
	if k >= n {
		sp.chosen = src.PermInto(sp.chosen, n)
		return sp.chosen
	}
	// Partial Fisher-Yates over the displaced-position records: O(k) space.
	sp.chosen = sp.chosen[:0]
	sp.remapK = sp.remapK[:0]
	sp.remapV = sp.remapV[:0]
	for i := 0; i < k; i++ {
		j := i + src.Intn(n-i)
		sp.chosen = append(sp.chosen, sp.lookup(j))
		sp.set(j, sp.lookup(i))
	}
	return sp.chosen
}

// NormFloat64 returns a standard normal variate (Box-Muller).
func (s *Source) NormFloat64() float64 {
	for {
		u1 := s.Float64()
		if u1 == 0 {
			continue
		}
		u2 := s.Float64()
		return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	}
}

// LogNormal returns a log-normal variate with the given parameters of the
// underlying normal (mu, sigma).
func (s *Source) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*s.NormFloat64())
}

// Poisson returns a Poisson(lambda) variate using Knuth's product method,
// adequate for the small lambdas used here (Table 1 uses 1 and 4).
func (s *Source) Poisson(lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	l := math.Exp(-lambda)
	k := 0
	p := 1.0
	for {
		p *= s.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// Zipf draws values in [0, n) with probability proportional to
// 1/(rank+1)^exponent. It is a small bounded Zipf sampler built on the
// standard library generator.
type Zipf struct {
	z *rand.Zipf
}

// NewZipf returns a bounded Zipf sampler over [0, n) with the given
// exponent (> 1 per math/rand's contract; exponents <= 1 are clamped to
// 1.0001, which is visually indistinguishable for our workloads).
func NewZipf(s *Source, exponent float64, n int) *Zipf {
	if exponent <= 1 {
		exponent = 1.0001
	}
	if n < 1 {
		n = 1
	}
	return &Zipf{z: rand.NewZipf(s.Rand(), exponent, 1, uint64(n-1))}
}

// Draw returns the next Zipf-distributed value in [0, n).
func (z *Zipf) Draw() int { return int(z.z.Uint64()) }

// WeightedChoice returns an index in [0, len(weights)) drawn with
// probability proportional to the weights. Zero-total weights fall back to
// uniform. It panics on an empty slice.
func (s *Source) WeightedChoice(weights []float64) int {
	if len(weights) == 0 {
		panic("randx: WeightedChoice with no weights")
	}
	total := 0.0
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total == 0 {
		return s.Intn(len(weights))
	}
	x := s.Float64() * total
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(weights) - 1
}
