// Package rng provides a small, fast, deterministic pseudo-random number
// generator for simulation use.
//
// The simulator must be bit-for-bit reproducible across runs and platforms,
// so all stochastic behaviour (workload address streams, arbitration seeds,
// benchmark parameter jitter) flows through this package rather than
// math/rand. The generator is SplitMix64 (Steele, Lea, Flood; JDK 8), which
// has a 64-bit state, passes BigCrush when used as a 64-bit generator, and —
// critically for us — supports O(1) stream splitting so every core, warp and
// traffic source can own an independent stream derived from a single run
// seed.
package rng

import "math"

// golden is the 64-bit golden ratio constant used by SplitMix64.
const golden = 0x9E3779B97F4A7C15

// Source is a deterministic SplitMix64 PRNG. The zero value is a valid
// generator seeded with 0; prefer New to make seeding explicit.
type Source struct {
	state uint64
}

// New returns a Source seeded with seed.
func New(seed uint64) *Source {
	return &Source{state: seed}
}

// Split returns a new Source whose stream is decorrelated from s but fully
// determined by (s's current state, tag). It does not advance s, so the
// order in which children are split off does not perturb the parent stream.
func (s *Source) Split(tag uint64) *Source {
	return &Source{state: mix(s.state ^ mix(tag+golden))}
}

// Uint64 returns the next 64 pseudo-random bits.
func (s *Source) Uint64() uint64 {
	s.state += golden
	return mix(s.state)
}

// mix is the SplitMix64 output function.
func mix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Intn returns a pseudo-random int in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with n <= 0")
	}
	return int(s.Uint64() % uint64(n))
}

// Float64 returns a pseudo-random float64 in [0, 1).
func (s *Source) Float64() float64 {
	// 53 high-quality bits, as in math/rand/v2.
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (s *Source) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return s.Float64() < p
}

// Geometric is a geometric distribution of fixed mean m: the number of
// Bernoulli failures before a success with p = 1/(m+1), clamped to
// [0, 64*m+64] to bound pathological tails. It holds the constant
// denominator ln(1-p) of the inverse CDF, so a caller sampling one mean many
// times pays one logarithm per draw instead of two. The zero value is the
// degenerate distribution of a mean <= 0: always 0, consuming no randomness.
type Geometric struct {
	logQ  float64 // ln(1-p)
	limit int     // 0 marks the degenerate distribution
}

// NewGeometric returns the geometric distribution with mean m.
func NewGeometric(m float64) Geometric {
	if m <= 0 {
		return Geometric{}
	}
	p := 1.0 / (m + 1.0)
	return Geometric{logQ: math.Log(1.0 - p), limit: int(64*m) + 64}
}

// Sample draws one value from the distribution using s.
func (d Geometric) Sample(s *Source) int {
	if d.limit == 0 {
		return 0
	}
	u := s.Float64()
	// Inverse CDF: floor(ln(1-u) / ln(1-p)).
	g := int(math.Log(1.0-u) / d.logQ)
	if g < 0 {
		g = 0
	}
	if g > d.limit {
		g = d.limit
	}
	return g
}

// Geometric returns one sample of the geometric distribution with mean m
// (see the Geometric type); m <= 0 yields 0.
func (s *Source) Geometric(m float64) int {
	return NewGeometric(m).Sample(s)
}

// Perm fills dst with a pseudo-random permutation of 0..len(dst)-1
// (Fisher-Yates).
func (s *Source) Perm(dst []int) {
	for i := range dst {
		dst[i] = i
	}
	for i := len(dst) - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		dst[i], dst[j] = dst[j], dst[i]
	}
}
