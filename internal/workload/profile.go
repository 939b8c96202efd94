// Package workload generates the heterogeneous, time-varying load the
// paper's experiments run: per-task load profiles (constant, sine and
// bursty) and randomized experiment cases with 2–12 VMs per
// host, mixed task classes, varying fan counts and environment temperatures
// ("Numerous experiments were conducted under different scenarios").
package workload

import (
	"errors"
	"fmt"
	"math"
)

// Profile gives a task's CPU demand fraction (of one vCPU) at time t
// seconds. Implementations must return values in [0, 1] for t >= 0.
type Profile interface {
	// At returns the demand fraction at time t.
	At(t float64) float64
}

// Constant is a fixed load level.
type Constant struct {
	Level float64
}

// At implements Profile.
func (c Constant) At(float64) float64 { return clamp01(c.Level) }

// Sine oscillates around Base with the given Amplitude and Period.
type Sine struct {
	Base, Amplitude float64
	Period          float64
	Phase           float64
}

// At implements Profile.
func (s Sine) At(t float64) float64 {
	if s.Period <= 0 {
		return clamp01(s.Base)
	}
	return clamp01(s.Base + s.Amplitude*math.Sin(2*math.Pi*t/s.Period+s.Phase))
}

// Bursty is a square wave: High for DutyCycle of each Period, Low otherwise.
type Bursty struct {
	Low, High float64
	Period    float64
	DutyCycle float64 // fraction of the period spent at High, in (0,1)
}

// At implements Profile.
func (b Bursty) At(t float64) float64 {
	if b.Period <= 0 {
		return clamp01(b.Low)
	}
	pos := modPeriod(t, b.Period) / b.Period
	if pos < clamp01(b.DutyCycle) {
		return clamp01(b.High)
	}
	return clamp01(b.Low)
}

// modPeriod returns math.Mod(t, p) for p > 0, bit for bit, without
// math.Mod's loop over the exponent difference where the quotient is
// small. For finite t > 0 and finite p with
// t < p·2^52, q = Trunc(t/p) is the whole quotient or one above it (t/p
// rounds, but never below an integer it exceeds), so t − q·p lies in
// [−p, p) and is representable: the fused multiply-add computes it without
// rounding, and adding p to a negative remainder is exact too.
// Everything else, −0 included, is left to math.Mod.
func modPeriod(t, p float64) float64 {
	if !(t > 0 && p <= math.MaxFloat64 && t < p*(1<<52)) {
		return math.Mod(t, p)
	}
	q := math.Trunc(t / p)
	r := math.FMA(-q, p, t)
	if r < 0 { // q was one above the quotient
		r += p
	}
	return r
}

// MeanOver numerically averages a profile over [from, to] with the given
// sampling step; used to derive expected utilization of a scenario. The
// points are from + (to−from)·k/n for k = 0..n, n being (to−from)/step
// rounded to the nearest integer (at least 1): an indexed grid always
// includes both ends, where accumulating t += step drifts and can drop the
// last point.
func MeanOver(p Profile, from, to, step float64) (float64, error) {
	if p == nil {
		return 0, errors.New("workload: nil profile")
	}
	if step <= 0 || to <= from {
		return 0, fmt.Errorf("workload: bad range [%v, %v] step %v", from, to, step)
	}
	n := max(int(math.Round((to-from)/step)), 1)
	var sum float64
	for k := 0; k <= n; k++ {
		sum += p.At(from + (to-from)*float64(k)/float64(n))
	}
	return sum / float64(n+1), nil
}

func clamp01(x float64) float64 {
	// NaN (e.g. a Sine evaluated at astronomically large t where the phase
	// computation overflows) degrades to zero load rather than poisoning the
	// simulation.
	if math.IsNaN(x) {
		return 0
	}
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}
