package svm

import "math"

// Constants of expNeg's argument reduction and polynomial. They are
// package-level because the AVX2 kernel (dist_amd64.s) reads the same
// values, four lanes wide, from expNegLanes.
const (
	expNegTabBits = 6
	expNegTabSize = 1 << expNegTabBits
	expNegMax     = 708 // e^-708 ~ 3e-308; below this we'd hit subnormals
	expNegInvStep = expNegTabSize / math.Ln2
	expNegStep    = math.Ln2 / expNegTabSize
)

// expNeg computes e^-x for x >= 0 with relative error below ~1e-13, about
// twice as fast as math.Exp on the hot path. Every RBF kernel exponential
// of batch prediction goes through this arithmetic: one lane at a time
// here, four lanes at a time in the AVX2 kernel, with identical bits.
//
// Method: argument reduction against a 64-entry table of 2^(-i/64),
//
//	x = k·ln2 + f·ln2/64 + r,   |r| <= ln2/128
//	e^-x = 2^-k · tab[f] · e^-r
//
// with e^-r from a degree-5 Maclaurin polynomial (remainder ~ r^6/720,
// ~4e-17 relative) and the 2^-k scaling applied directly on the exponent
// bits. Inputs outside the fast path (negative, NaN) defer to math.Exp.
//
// The float64 conversions round every product before it is added or
// subtracted, so a compiler that may fuse x*y+z (GOAMD64=v3, arm64)
// produces the bits the unfused vector kernel does.
func expNeg(x float64) float64 {
	if !(x >= 0) {
		return math.Exp(-x) // negative or NaN
	}
	if x > expNegMax {
		return 0
	}
	n := int64(float64(x*expNegInvStep) + 0.5)
	r := x - float64(float64(n)*expNegStep)
	p := 1.0/24 - float64(r*(1.0/120))
	p = 1.0/6 - float64(r*p)
	p = 0.5 - float64(r*p)
	p = 1 - float64(r*p)
	p = 1 - float64(r*p)
	k := n >> expNegTabBits
	f := n & (expNegTabSize - 1)
	bits := math.Float64bits(expNegTab[f] * p)
	return math.Float64frombits(bits - uint64(k)<<52)
}

// expNegTab[i] = 2^(-i/64).
var expNegTab = func() [expNegTabSize]float64 {
	var t [expNegTabSize]float64
	for i := range t {
		t[i] = math.Exp(-float64(i) * math.Ln2 / 64)
	}
	return t
}()
