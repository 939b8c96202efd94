package thermal

import "math"

// The utilization→power curve is clamp01(u)^utilExponent. math.Pow runs,
// for y = 1.25, its integer part yi = 1 and fraction yf = 0.25 as
// Ldexp(Exp(yf·Log(x))·m, e), where m ∈ [0.5, 1) and e are Frexp(x). On
// [curveLo, 1) that result is a normal number, so the power-of-two scaling
// is one exact multiply, and utilCurve runs just those operations: the same
// bits without Pow's special-case switch, Modf, Frexp loop and Ldexp.
// UtilCurves runs them four lanes at a time where the CPU allows
// (utilCurveLanes, amd64 only). Both go to math.Pow itself for 0, −0, 1,
// NaN and subnormals.
const (
	// curveFrac is yf, the fraction of utilExponent; Pow's reduction above
	// holds for 0 < yf ≤ 0.5 and yi = 1.
	curveFrac = utilExponent - 1
	// curveLo is the smallest x the fast paths take: x^1.25 ≥ 2^-1000
	// there, far above the subnormals.
	curveLo = 0x1p-800
)

// utilCurve is the curve point for one utilization: clamp01(util)^1.25,
// bit for bit math.Pow's.
func utilCurve(util float64) float64 {
	x := clamp01(util)
	if !(x >= curveLo && x < 1) {
		return math.Pow(x, utilExponent)
	}
	a := math.Exp(curveFrac * math.Log(x))
	b := math.Float64bits(x)
	m := math.Float64frombits(b&(1<<52-1) | 0x3FE<<52) // Frexp's fraction
	p := math.Float64frombits((b>>52 + 1) << 52)       // 2^e, e = Frexp's exponent
	return (a * m) * p
}

// UtilCurves writes utilCurve(utils[i]) to curves[i] for every i — a block of
// curve points in one call. curves must be at least as long as utils. Where
// the 4-lane routine may run (useCurveLanes), it takes every whole block of
// four, and the lanes outside [curveLo, 1) and the last len % 4 go through
// utilCurve.
func UtilCurves(curves, utils []float64) {
	curves = curves[:len(utils)]
	done := 0
	if useCurveLanes && len(utils) >= 4 {
		done = len(utils) &^ 3
		if !utilCurveLanes(&curves[0], &utils[0], done/4) {
			for i, u := range utils[:done] {
				if !(u >= curveLo && u < 1) {
					curves[i] = utilCurve(u)
				}
			}
		}
	}
	for i := done; i < len(utils); i++ {
		curves[i] = utilCurve(utils[i])
	}
}

// useCurveLanes reports whether UtilCurves runs the 4-lane routine. The
// routine ports the FMA branch of math.Exp, which math takes only where Go
// detects AVX and FMA and GODEBUG=cpu.fma=off does not turn it off; so it
// runs only where the CPU supports it and it matches math.Pow on inputs
// where the two branches of math.Exp differ. It is set in init, after
// curveLanes, which only the assembly reads.
var useCurveLanes bool

func init() {
	useCurveLanes = curveLanesCPU && lanesMatch(func(x float64) float64 { return math.Pow(x, utilExponent) })
}

// fmaSplitInputs are utilizations whose curve points differ between the
// FMA and the plain branch of math.Exp.
var fmaSplitInputs = [...]float64{
	0.4297927436037299, 0.281449117585586, 0.5951881962266721, 0.31329450651513446,
	0.6127184597329406, 0.4262028108502791, 0.29923979616441954, 0.15414405289689015,
}

// lanesMatch reports whether utilCurveLanes agrees with ref, bit for bit,
// on fmaSplitInputs. It must only be called where curveLanesCPU holds.
func lanesMatch(ref func(float64) float64) bool {
	var got [len(fmaSplitInputs)]float64
	if !utilCurveLanes(&got[0], &fmaSplitInputs[0], len(got)/4) {
		return false
	}
	for i, x := range fmaSplitInputs {
		if math.Float64bits(got[i]) != math.Float64bits(ref(x)) {
			return false
		}
	}
	return true
}
