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
// ready equation is typographically damaged; this reconstruction satisfies
// all constraints stated in the prose — see DESIGN.md §1.
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
	if math.IsNaN(c.Phi0) || math.IsNaN(c.Stable) {
		return fmt.Errorf("core: curve anchors NaN (phi0 %v, stable %v)", c.Phi0, c.Stable)
	}
	return nil
}

// Value evaluates ψ*(t). Times before 0 clamp to φ(0).
func (c Curve) Value(t float64) float64 {
	if t <= 0 {
		return c.Phi0
	}
	if t >= c.TBreakS {
		return c.Stable
	}
	frac := math.Log1p(t/c.DeltaS) / math.Log1p(c.TBreakS/c.DeltaS)
	return c.Phi0 + (c.Stable-c.Phi0)*frac
}
