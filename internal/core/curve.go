package core

import (
	"fmt"
	"math"
)

// Curve is the paper's Eq. (3): a pre-defined coarse-grained temperature
// trajectory anchored at the pre-experiment temperature φ(0) and the
// predicted stable temperature ψ_stable, reached at t_break:
//
//	ψ*(t) = φ(0) + (ψ_stable − φ(0)) · ln(1 + t/δ) / ln(1 + t_break/δ)   0 ≤ t ≤ t_break
//	ψ*(t) = ψ_stable                                                     t > t_break
//
// δ shapes the warm-up rate (small δ = steeper initial rise). The camera-
// ready equation is typographically damaged; this reconstruction meets the
// constraints the prose states: ψ*(0) = φ(0), ψ*(t_break) = ψ_stable, the
// curve is monotone between them, and it changes fastest at the start
// ("first variation, then stability").
type Curve struct {
	// Phi0 is the measured temperature at experiment start, φ(0).
	Phi0 float64
	// Stable is ψ_stable, typically supplied by a StablePredictor.
	Stable float64
	// TBreakS is the break-in time after which temperature is stable.
	TBreakS float64
	// DeltaS is the curvature parameter δ in seconds.
	DeltaS float64
}

// DefaultCurveDelta is the δ used across experiments (ablated by
// experiments.RunAblationCurveDelta).
const DefaultCurveDelta = 30.0

// DefaultTBreakS is the paper's break-in time t_break (Eq. 1): the
// experiment protocol reads ψ_stable from the trace after it.
const DefaultTBreakS = 600.0

// NewCurve builds a validated Eq. (3) curve.
func NewCurve(phi0, stable, tBreakS, deltaS float64) (Curve, error) {
	c := Curve{Phi0: phi0, Stable: stable, TBreakS: tBreakS, DeltaS: deltaS}
	return c, c.Validate()
}

// Validate checks curve parameters.
func (c Curve) Validate() error {
	if !(c.TBreakS > 0) || math.IsInf(c.TBreakS, 0) {
		return fmt.Errorf("core: t_break must be finite and > 0, got %v", c.TBreakS)
	}
	if !(c.DeltaS > 0) || math.IsInf(c.DeltaS, 0) {
		return fmt.Errorf("core: delta must be finite and > 0, got %v", c.DeltaS)
	}
	return checkAnchors(c.Phi0, c.Stable)
}

// checkAnchors refuses anchors that are not finite: a curve anchored at
// ±Inf evaluates to ±Inf or NaN everywhere it leaves the other anchor.
func checkAnchors(phi0, stable float64) error {
	if math.IsNaN(phi0) || math.IsInf(phi0, 0) || math.IsNaN(stable) || math.IsInf(stable, 0) {
		return fmt.Errorf("core: curve anchors must be finite (phi0 %v, stable %v)", phi0, stable)
	}
	return nil
}

// Value evaluates ψ*(t). Times before 0 clamp to φ(0).
func (c Curve) Value(t float64) float64 {
	return c.valueOver(t, c.logSpan(), nil)
}

// logSpan is Eq. (3)'s denominator ln(1 + t_break/δ), a constant of the
// curve's shape: a Shape holds it, and DynamicPredictor keeps it per anchor.
func (c Curve) logSpan() float64 { return math.Log1p(c.TBreakS / c.DeltaS) }

// valueOver evaluates ψ*(t) given the curve's logSpan, taking the warm-up
// fraction from m when m serves the curve's shape (nil computes it). ψ* is
// one expression of the fraction on both paths, so a build that fuses
// multiply-adds fuses it the same way whether the fraction was a hit.
func (c Curve) valueOver(t, logSpan float64, m *CurveMemo) float64 {
	if t <= 0 {
		return c.Phi0
	}
	if t >= c.TBreakS {
		return c.Stable
	}
	var frac float64
	if m != nil && m.deltaS == c.DeltaS && m.tBreakS == c.TBreakS {
		frac = m.frac(t)
	} else {
		frac = math.Log1p(t/c.DeltaS) / logSpan
	}
	return c.Phi0 + (c.Stable-c.Phi0)*frac
}

// memoBits sizes a CurveMemo's table: 256 entries, 4 KB.
const memoBits = 8

// CurveMemo memoises Eq. (3)'s warm-up fraction ln(1 + t/δ)/ln(1 + t_break/δ)
// for the curves of one Shape. It is a direct-mapped table keyed by the bits
// of the curve-local time t; an entry holds its whole key, so a hit returns
// exactly the float the computation would, and a miss computes and
// overwrites. Curves of another t_break or δ never consult it.
//
// Predictors anchored at one instant and evaluated at one instant share t:
// the readings of a fleet round share a timestamp (trace rows, scrapes,
// simulator samples) and the sessions a round anchored share their anchor,
// so a round over thousands of hosts computes a few dozen logarithms instead
// of two per host. Readings stamped per host (pushes) miss every time and
// pay one hash and one store beside the logarithm.
//
// A memo is not safe for concurrent use: each concurrent evaluator owns one.
type CurveMemo struct {
	tBreakS, deltaS, logSpan float64
	table                    [1 << memoBits]memoEntry
}

// memoEntry is one cached fraction. The zero entry is the exact one for
// t = +0 (ln(1 + 0) = +0), so a fresh table needs no empty marker.
type memoEntry struct {
	key  uint64
	frac float64
}

// NewCurveMemo returns an empty memo for the curves of shape sh.
func NewCurveMemo(sh *Shape) *CurveMemo {
	return &CurveMemo{tBreakS: sh.tBreakS, deltaS: sh.deltaS, logSpan: sh.logSpan}
}

// memoSlot is key's index in the table (Fibonacci hashing: the product's
// top bits depend on every bit of the key, and times on a coarse grid leave
// the low mantissa bits zero).
func memoSlot(key uint64) uint64 { return key * 0x9E3779B97F4A7C15 >> (64 - memoBits) }

// frac returns ln(1 + t/δ)/ln(1 + t_break/δ), from the table when t's bits
// are there.
func (m *CurveMemo) frac(t float64) float64 {
	key := math.Float64bits(t)
	e := &m.table[memoSlot(key)]
	if e.key != key {
		e.key, e.frac = key, math.Log1p(t/m.deltaS)/m.logSpan
	}
	return e.frac
}
