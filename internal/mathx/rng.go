// Package mathx provides deterministic randomness plumbing and the few
// statistics vmtherm computes: the error metrics MSE and MAE, a running
// mean, and the least-squares fits behind the regression baselines.
//
// Every stochastic component in the repository draws from an explicit *RNG
// seeded by the caller; there is no package-level random state. This keeps
// experiments reproducible bit-for-bit, which the test suite asserts.
package mathx

import (
	"hash/fnv"
	"math/rand"
)

// RNG is a seeded random source with convenience helpers for the
// distributions used by the simulator and workload generators.
//
// RNG is not safe for concurrent use; derive independent children with
// SplitStable for use across goroutines.
type RNG struct {
	r *rand.Rand
}

// NewRNG returns a deterministic RNG seeded with seed.
func NewRNG(seed int64) *RNG {
	return &RNG{r: rand.New(rand.NewSource(seed))}
}

// SplitStable derives a child RNG from only the label, independent of how
// much of the parent stream has been consumed. Use it when child creation
// order must not affect determinism.
func SplitStable(seed int64, label string) *RNG {
	h := fnv.New64a()
	_, _ = h.Write([]byte(label))
	return NewRNG(seed ^ int64(h.Sum64()))
}

// Uniform returns a uniform value in [lo, hi).
func (g *RNG) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*g.r.Float64()
}

// Normal returns a Gaussian sample with the given mean and standard
// deviation.
func (g *RNG) Normal(mean, std float64) float64 {
	return mean + std*g.r.NormFloat64()
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// IntBetween returns a uniform integer in [lo, hi] inclusive.
// It panics if hi < lo.
func (g *RNG) IntBetween(lo, hi int) int {
	if hi < lo {
		panic("mathx: IntBetween bounds inverted")
	}
	return lo + g.r.Intn(hi-lo+1)
}

// Bool returns true with probability p.
func (g *RNG) Bool(p float64) bool { return g.r.Float64() < p }

// Perm returns a random permutation of [0, n).
func (g *RNG) Perm(n int) []int { return g.r.Perm(n) }
