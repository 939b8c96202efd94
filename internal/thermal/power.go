package thermal

import (
	"fmt"
	"math"
)

// PowerModel converts server activity into heat (W). It captures the three
// effects the paper's feature vector must explain: CPU utilization (the
// dominant term), memory activity, and temperature-dependent static leakage.
type PowerModel struct {
	// IdleW is power drawn at zero utilization.
	IdleW float64
	// MaxW is power drawn at full utilization (before leakage).
	MaxW float64
	// MemMaxW is the additional power at 100% memory activity.
	MemMaxW float64
	// LeakWPerK adds LeakWPerK watts per kelvin of die temperature above
	// LeakRefC, modelling static leakage growth. May be zero.
	LeakWPerK float64
	// LeakRefC is the reference die temperature for the leakage term.
	LeakRefC float64
	// UtilExponent shapes the utilization→power curve; 1 is linear. Real
	// servers are mildly super-linear towards full load (≈1.1–1.4).
	UtilExponent float64
}

// DefaultPowerModel returns parameters typical of a dual-socket 2U server.
func DefaultPowerModel() PowerModel {
	return PowerModel{
		IdleW:        55,
		MaxW:         165,
		MemMaxW:      18,
		LeakWPerK:    0.12,
		LeakRefC:     45,
		UtilExponent: 1.25,
	}
}

// Validate reports whether the model parameters are finite and physically
// sensible.
func (p PowerModel) Validate() error {
	if err := finite("PowerModel", []field{
		{"IdleW", p.IdleW}, {"MaxW", p.MaxW}, {"MemMaxW", p.MemMaxW},
		{"LeakWPerK", p.LeakWPerK}, {"LeakRefC", p.LeakRefC}, {"UtilExponent", p.UtilExponent},
	}); err != nil {
		return err
	}
	if p.IdleW < 0 || p.MaxW <= 0 || p.MaxW < p.IdleW {
		return fmt.Errorf("thermal: power bounds invalid (idle %v, max %v)", p.IdleW, p.MaxW)
	}
	if p.MemMaxW < 0 {
		return fmt.Errorf("thermal: negative memory power %v", p.MemMaxW)
	}
	if p.LeakWPerK < 0 {
		return fmt.Errorf("thermal: negative leakage slope %v", p.LeakWPerK)
	}
	if p.UtilExponent <= 0 {
		return fmt.Errorf("thermal: utilization exponent must be > 0, got %v", p.UtilExponent)
	}
	return nil
}

// Power returns the heat output for the given CPU utilization (0..1), memory
// activity fraction (0..1) and current die temperature. Inputs outside [0,1]
// are clamped.
func (p PowerModel) Power(util, memFrac, dieTempC float64) float64 {
	return p.powerFromCurve(p.utilCurve(util), memFrac, dieTempC)
}

// utilCurve is the utilization→power curve point clamp01(util)^UtilExponent,
// Power's one math.Pow. It is a pure function of util's bits, which is what
// lets Server memoise it across ticks.
func (p PowerModel) utilCurve(util float64) float64 {
	return math.Pow(clamp01(util), p.UtilExponent)
}

// powerFromCurve is the rest of Power, given the curve point utilCurve
// returned. Power and Server's memoised path both run exactly these
// operations.
func (p PowerModel) powerFromCurve(curve, memFrac, dieTempC float64) float64 {
	memFrac = clamp01(memFrac)
	w := p.IdleW + (p.MaxW-p.IdleW)*curve + p.MemMaxW*memFrac
	if p.LeakWPerK > 0 && dieTempC > p.LeakRefC {
		w += p.LeakWPerK * (dieTempC - p.LeakRefC)
	}
	return w
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}
