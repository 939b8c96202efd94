package thermal

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"
)

// Advance is the one-server step the tests drive: AdvanceCurve at the curve
// point of the server's own EffectiveUtil, a rack of one.
func (s *Server) Advance(dt float64) error {
	return s.AdvanceCurve(dt, utilCurve(s.EffectiveUtil()))
}

// powCurve is the reference every curve path must match bit for bit.
func powCurve(u float64) float64 { return math.Pow(clamp01(u), utilExponent) }

// curveInputs are the edge inputs of the pin: signed zeros, the clamp's two
// sides, NaN, both sides of curveLo, subnormals, √2/2 (where math.Log's
// reduction switches) at every exponent of the fast range, the FMA-split
// inputs, and numbers next to 1.
func curveInputs() []float64 {
	in := []float64{
		0, math.Copysign(0, -1), 1, math.Nextafter(1, 2), 1.7, math.Inf(1), math.MaxFloat64,
		-1e-300, -0.2, -1, math.Inf(-1), math.NaN(), math.Float64frombits(0xFFF8000000000001),
		curveLo, math.Nextafter(curveLo, 0), math.Nextafter(curveLo, 1), curveLo / 2, 0x1p-1000,
		math.SmallestNonzeroFloat64, 0x1p-1030, math.Nextafter(0x1p-1022, 0), 0x1p-1022,
		math.Nextafter(1, 0), 1 - 0x1p-30, 0.5, 0.25, 1e-9, 1e-3,
	}
	for e := -800; e <= 0; e++ {
		for _, m := range []float64{math.Sqrt2 / 2, math.Nextafter(math.Sqrt2/2, 0), math.Nextafter(math.Sqrt2/2, 1)} {
			if x := math.Ldexp(m, e); x < 1 {
				in = append(in, x)
			}
		}
	}
	return append(in, fmaSplitInputs[:]...)
}

// checkCurves fails t unless UtilCurves over in, and utilCurve on each
// element, give powCurve's bits; it returns the number of elements checked.
func checkCurves(t *testing.T, what string, in []float64) int {
	t.Helper()
	out := make([]float64, len(in)+1)
	out[len(in)] = 42 // UtilCurves writes len(in) elements, no more
	UtilCurves(out, in)
	for i, u := range in {
		want := math.Float64bits(powCurve(u))
		if got := math.Float64bits(out[i]); got != want {
			t.Fatalf("%s: UtilCurves lane %d of %d, u = %v (%#x): %v (%#x), math.Pow %v (%#x)",
				what, i, len(in), u, math.Float64bits(u), out[i], got, powCurve(u), want)
		}
		if got := math.Float64bits(utilCurve(u)); got != want {
			t.Fatalf("%s: utilCurve(%v) (%#x) = %v, math.Pow %v", what, u, math.Float64bits(u), utilCurve(u), powCurve(u))
		}
	}
	if out[len(in)] != 42 {
		t.Fatalf("%s: UtilCurves wrote past %d elements", what, len(in))
	}
	return len(in)
}

// TestUtilCurvesMatchPow pins both curve paths — the scalar utilCurve and
// UtilCurves with its 4-lane routine where it runs — to
// math.Pow(clamp01(u), 1.25), bit for bit: random utilizations, the edge
// inputs, every batch length 0–9 and 128 at every offset into the edge
// inputs, and random inputs across the whole fast range.
func TestUtilCurvesMatchPow(t *testing.T) {
	t.Logf("power curve: 4-lane routine %v", useCurveLanes)
	rng := rand.New(rand.NewPCG(3, 47))
	edges := curveInputs()
	n := checkCurves(t, "edges", edges)
	for length := 0; length <= 9; length++ {
		for off := 0; off+length <= len(edges); off += 1 + length {
			n += checkCurves(t, fmt.Sprintf("length %d at %d", length, off), edges[off:off+length])
		}
	}
	for _, length := range []int{128, 1 << 16} {
		util, wide := make([]float64, length), make([]float64, length)
		for i := range util {
			util[i] = rng.Float64()
			wide[i] = math.Ldexp(0.5+0.5*rng.Float64(), -rng.IntN(820))
			if rng.IntN(16) == 0 { // an edge lane in a block of in-range ones
				util[i] = edges[rng.IntN(len(edges))]
			}
		}
		n += checkCurves(t, fmt.Sprintf("random util, length %d", length), util)
		n += checkCurves(t, fmt.Sprintf("random exponents, length %d", length), wide)
	}
	t.Logf("%d curve points checked", n)
}

// The two branches of math's amd64 Exp, written out in Go for the guard
// check (every product that feeds a sum rounded on its own, or fused by
// math.FMA where the FMA branch fuses it).
var expPoly = [...]float64{2.4801587301587301587e-5, 1.9841269841269841270e-4, 1.3888888888888888889e-3,
	8.3333333333333333333e-3, 4.1666666666666666667e-2, 1.6666666666666666667e-1, 0.5, 1}

func archExpBranch(x float64, fma bool) float64 {
	const (
		log2e = 1.4426950408889634073599246810018920
		ln2U  = 0.69314718055966295651160180568695068359375
		ln2L  = 0.28235290563031577122588448175013436025525412068e-12
	)
	k := math.RoundToEven(float64(log2e * x))
	if fma {
		x = math.FMA(-k, ln2U, x)
		x = math.FMA(-k, ln2L, x)
	} else {
		x -= float64(ln2U * k)
		x -= float64(ln2L * k)
	}
	x *= 0.0625
	p := expPoly[0]
	for _, c := range expPoly[1:] {
		if fma {
			p = math.FMA(p, x, c)
		} else {
			p = float64(p*x) + c
		}
	}
	x *= p
	for i := 0; i < 3; i++ {
		x *= x + 2
	}
	if fma {
		x = math.FMA(x, x+2, 1)
	} else {
		x = float64(x*(x+2)) + 1
	}
	return x * math.Float64frombits(uint64(int64(k)+1023)<<52)
}

// curveWithExp is utilCurve on [curveLo, 1) with the given Exp branch.
func curveWithExp(u float64, fma bool) float64 {
	a := archExpBranch(curveFrac*math.Log(u), fma)
	b := math.Float64bits(u)
	return (a * math.Float64frombits(b&(1<<52-1)|0x3FE<<52)) * math.Float64frombits((b>>52+1)<<52)
}

// TestCurveLanesGuard: the inputs the start-up guard compares on separate
// the two branches of math.Exp, math.Pow takes one of them (the plain one
// under GODEBUG=cpu.fma=off), and the guard turns the routine off when its
// reference is the other branch — when forced to mismatch.
func TestCurveLanesGuard(t *testing.T) {
	for _, u := range fmaSplitInputs {
		fused, plain := curveWithExp(u, true), curveWithExp(u, false)
		if fused == plain {
			t.Errorf("guard input %v: both Exp branches give %v; it separates nothing", u, fused)
		}
		if p := powCurve(u); p != fused && p != plain {
			t.Errorf("guard input %v: math.Pow %v is neither branch (%v fused, %v plain)", u, p, fused, plain)
		}
	}
	if !curveLanesCPU {
		t.Skip("no 4-lane routine on this CPU or build")
	}
	if !lanesMatch(func(u float64) float64 { return curveWithExp(u, true) }) {
		t.Error("the routine does not match the FMA branch of math.Exp")
	}
	if lanesMatch(func(u float64) float64 { return curveWithExp(u, false) }) {
		t.Error("the guard accepted the routine against the plain branch of math.Exp")
	}
	if fused := powCurve(fmaSplitInputs[0]) == curveWithExp(fmaSplitInputs[0], true); useCurveLanes != fused {
		t.Errorf("useCurveLanes %v, but math.Pow takes the FMA branch: %v", useCurveLanes, fused)
	}
}

// BenchmarkUtilCurves reports ns per curve point for a rack-sized batch of
// in-range utilizations: the 4-lane routine, the scalar path, and math.Pow.
func BenchmarkUtilCurves(b *testing.B) {
	rng := rand.New(rand.NewPCG(4, 47))
	util, out := make([]float64, 256), make([]float64, 256)
	for i := range util {
		util[i] = 0.05 + 0.9*rng.Float64()
	}
	run := func(b *testing.B, f func()) {
		for i := 0; i < b.N; i++ {
			f()
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(util)), "ns/elem")
	}
	b.Run("lanes=4", func(b *testing.B) {
		if !useCurveLanes {
			b.Skip("no 4-lane routine on this CPU or build")
		}
		run(b, func() { UtilCurves(out, util) })
	})
	b.Run("scalar", func(b *testing.B) {
		run(b, func() {
			for i, u := range util {
				out[i] = utilCurve(u)
			}
		})
	})
	b.Run("pow", func(b *testing.B) {
		run(b, func() {
			for i, u := range util {
				out[i] = powCurve(u)
			}
		})
	})
}
