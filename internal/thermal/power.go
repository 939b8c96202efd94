package thermal

// The power model of the reference dual-socket 2U server converts activity
// into heat (W). It captures the three effects the paper's feature vector
// must explain: CPU utilization (the dominant term), memory activity, and
// temperature-dependent static leakage.
const (
	// idleW is power drawn at zero utilization.
	idleW float64 = 55
	// maxW is power drawn at full utilization (before leakage).
	maxW float64 = 165
	// memMaxW is the additional power at 100% memory activity.
	memMaxW float64 = 18
	// leakWPerK adds leakWPerK watts per kelvin of die temperature above
	// leakRefC, modelling static leakage growth.
	leakWPerK float64 = 0.12
	// leakRefC is the reference die temperature for the leakage term.
	leakRefC float64 = 45
	// utilExponent shapes the utilization→power curve; 1 is linear. Real
	// servers are mildly super-linear towards full load (≈1.1–1.4).
	utilExponent float64 = 1.25
)

// power returns the heat output for the given CPU utilization (0..1), memory
// activity fraction (0..1) and current die temperature. Inputs outside [0,1]
// are clamped.
func power(util, memFrac, dieTempC float64) float64 {
	return powerFromCurve(utilCurve(util), memFrac, dieTempC)
}

// powerFromCurve is the rest of power, given the curve point utilCurve
// (curve.go) returned for util. power and Server.AdvanceCurve, whose curve
// points UtilCurves computes a rack at a time, both run exactly these
// operations.
func powerFromCurve(curve, memFrac, dieTempC float64) float64 {
	memFrac = clamp01(memFrac)
	w := idleW + (maxW-idleW)*curve + memMaxW*memFrac
	if dieTempC > leakRefC {
		w += leakWPerK * (dieTempC - leakRefC)
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
