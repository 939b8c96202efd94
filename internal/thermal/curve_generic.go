//go:build !amd64 || noasm

package thermal

// Without the amd64 routine every curve point takes utilCurve.
const curveLanesCPU = false

func utilCurveLanes(dst, src *float64, blocks int) (inRange bool) {
	panic("thermal: utilCurveLanes called without the AVX2 routine")
}
