// Package simrand provides deterministic random number streams for the
// simulation.
//
// Reproducibility is a hard requirement of the benchmark harness: two runs of
// an experiment with the same seed must produce byte-identical traces. The
// standard library's math/rand/v2 global functions are seeded randomly, and
// sharing one source across components couples their noise (adding a sensor
// would perturb every other sensor's readings). Instead, each simulated
// component derives its own independent stream by splitting a parent source
// with a string label, so component noise is stable under refactoring.
//
// The core generator is SplitMix64 (Steele, Lea, Flood — "Fast Splittable
// Pseudorandom Number Generators", OOPSLA 2014), which passes BigCrush for
// this usage and whose whole state is a single uint64, making Split cheap.
package simrand

import (
	"hash/fnv"
	"math"
)

// Source is a deterministic pseudorandom stream. Not safe for concurrent
// use; give each goroutine its own Split.
type Source struct {
	state uint64
	// cached second normal variate from the polar method
	haveGauss bool
	gauss     float64
}

// New returns a Source seeded with seed. Distinct seeds produce independent
// streams; the same seed always produces the same stream.
func New(seed uint64) *Source {
	return &Source{state: seed}
}

// splitmix64 advances the state and returns the next 64 uniformly random
// bits.
func (s *Source) next() uint64 {
	s.state += 0x9E3779B97F4A7C15
	z := s.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Uint64 returns the next 64 uniformly random bits.
func (s *Source) Uint64() uint64 { return s.next() }

// Split derives an independent child stream identified by label. The child
// depends only on the parent's seed and the label, not on how many values
// have been drawn from the parent, so adding draws elsewhere does not change
// the child stream.
func (s *Source) Split(label string) *Source {
	h := fnv.New64a()
	h.Write([]byte(label))
	// Mix the label hash with the parent's seed through one splitmix round
	// to decorrelate children of different parents with the same label.
	child := &Source{state: s.seed() ^ h.Sum64()}
	// burn one value so nearby seeds decorrelate immediately
	child.next()
	return child
}

// seed reports the stream's original seed material (its current state is the
// seed for derivation purposes; Split on a fresh source is stable).
func (s *Source) seed() uint64 { return s.state }

// Float64 returns a uniform float64 in [0, 1).
func (s *Source) Float64() float64 {
	// 53 high-quality bits -> [0,1)
	return float64(s.next()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("simrand: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded sampling is overkill here; modulo
	// bias at n << 2^64 is negligible for simulation noise.
	return int(s.next() % uint64(n))
}

// Uniform returns a uniform float64 in [lo, hi).
func (s *Source) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*s.Float64()
}

// NormFloat64 returns a standard normal variate (mean 0, stddev 1) using the
// Marsaglia polar method.
func (s *Source) NormFloat64() float64 {
	if s.haveGauss {
		s.haveGauss = false
		return s.gauss
	}
	for {
		u := 2*s.Float64() - 1
		v := 2*s.Float64() - 1
		q := u*u + v*v
		if q == 0 || q >= 1 {
			continue
		}
		f := math.Sqrt(-2 * math.Log(q) / q)
		s.gauss = v * f
		s.haveGauss = true
		return u * f
	}
}

// Normal returns a normal variate with the given mean and standard
// deviation. A non-positive sigma returns mean exactly.
func (s *Source) Normal(mean, sigma float64) float64 {
	if sigma <= 0 {
		return mean
	}
	return mean + sigma*s.NormFloat64()
}

// Bool returns true with probability p (clamped to [0, 1]).
func (s *Source) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return s.Float64() < p
}
