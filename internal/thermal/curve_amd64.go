//go:build amd64 && !noasm

package thermal

import (
	"math"

	"vmtherm/internal/cpufeat"
)

// curveLanesCPU: the routine needs AVX2 and FMA.
var curveLanesCPU = cpufeat.AVX2FMA

// utilCurveLanes writes utilCurve(src[i]) to dst[i] for i < 4·blocks, four
// lanes per op, and reports whether every src[i] was in [curveLo, 1). A lane
// outside that range gets a meaningless value that the caller replaces.
// blocks must be positive. Implemented in curve_amd64.s: per lane, it runs
// math.Log's archLog and the FMA branch of math.Exp's archExp operation for
// operation, then utilCurve's scaling.
//
//go:noescape
func utilCurveLanes(dst, src *float64, blocks int) (inRange bool)

// curveLanes holds utilCurveLanes' constants, each replicated across the
// four lanes of a ymm register, in the order curve_amd64.s indexes them.
// The log and exp constants are the ones math's amd64 assembly uses.
var curveLanes = func() (t [30][4]uint64) {
	for i, c := range [...]uint64{
		0x000FFFFFFFFFFFFF,                                                      // 0 mantissa mask
		math.Float64bits(0.5),                                                   // 1 Frexp fraction's exponent; 0.5
		math.Float64bits(0x1p52),                                                // 2 2^52, to make an exponent a float64
		math.Float64bits(0x1p52 + 0x3FE),                                        // 3 the same, less Frexp's bias
		math.Float64bits(7.07106781186547524401e-01),                            // 4 √2/2
		math.Float64bits(1),                                                     // 5
		math.Float64bits(2),                                                     // 6
		math.Float64bits(1.479819860511658591e-01),                              // 7 L7
		math.Float64bits(1.818357216161805012e-01),                              // 8 L5
		math.Float64bits(2.857142874366239149e-01),                              // 9 L3
		math.Float64bits(6.666666666666735130e-01),                              // 10 L1
		math.Float64bits(1.531383769920937332e-01),                              // 11 L6
		math.Float64bits(2.222219843214978396e-01),                              // 12 L4
		math.Float64bits(3.999999999940941908e-01),                              // 13 L2
		math.Float64bits(1.90821492927058770002e-10),                            // 14 Ln2Lo
		math.Float64bits(6.93147180369123816490e-01),                            // 15 Ln2Hi
		math.Float64bits(curveFrac),                                             // 16
		math.Float64bits(1.4426950408889634073599246810018920),                  // 17 log2(e)
		math.Float64bits(0.69314718055966295651160180568695068359375),           // 18 upper half of ln 2
		math.Float64bits(0.28235290563031577122588448175013436025525412068e-12), // 19 lower half
		math.Float64bits(0.0625),                                                // 20
		math.Float64bits(2.4801587301587301587e-5),                              // 21 1/8!
		math.Float64bits(1.9841269841269841270e-4),                              // 22 1/7!
		math.Float64bits(1.3888888888888888889e-3),                              // 23 1/6!
		math.Float64bits(8.3333333333333333333e-3),                              // 24 1/5!
		math.Float64bits(4.1666666666666666667e-2),                              // 25 1/4!
		math.Float64bits(1.6666666666666666667e-1),                              // 26 1/3!
		0x3FF,                     // 27 exponent bias (int64)
		1,                         // 28 (int64)
		math.Float64bits(curveLo), // 29
	} {
		t[i] = [4]uint64{c, c, c, c}
	}
	return t
}()
