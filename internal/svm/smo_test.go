package svm

import (
	"math"
	"slices"
	"testing"
)

// passValues are the gradients, kernel entries and coefficients the pass
// tests draw from: few enough that values tie across lanes and halves, with
// both zeros and both infinities (the latter make NaN gradients).
var passValues = []float64{0, math.Copysign(0, -1), 1, -1, 0.5, -0.5, 2, -3, math.Inf(1), math.Inf(-1)}

// passSolver builds the solver state one SMO pass reads from data: l < 38
// samples, gradients from passValues, multipliers at 0, at C or between,
// and the two kernel rows, the diagonal and the coefficients of a step.
// Missing bytes read as zero.
func passSolver(data []byte) (s *solver, ri, rj []float64, ci, cj float64, p wss2Pass) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	val := func() float64 { return passValues[next()%len(passValues)] }
	l := next() % 38
	const c = 4
	s = &solver{l: l, n: 2 * l, c: c, alpha: make([]float64, 2*l), grad: make([]float64, 2*l), diag: make([]float64, l)}
	for t := range s.grad {
		s.grad[t] = val()
		s.alpha[t] = [...]float64{0, c, 1.5, 0x1p-60}[next()%4]
	}
	ri, rj = make([]float64, l), make([]float64, l)
	for k := range l {
		s.diag[k] = float64(next()%3) / 2
		ri[k], rj[k] = float64(next()%5)/4, float64(next()%5)/4
	}
	ci, cj = val(), val()
	p = wss2Pass{ri: ri, qi: float64(next()%3) / 2, s2: float64(next()%2*4 - 2), gmax: val()}
	return s, ri, rj, ci, cj, p
}

// passWidths are the widths the SMO passes can run at on this build and
// CPU: 8 (AVX-512), 4 (AVX2) and 0, the scalar loop alone.
func passWidths() []int {
	switch {
	case useAVX512:
		return []int{8, 4, 0}
	case useAVX:
		return []int{4, 0}
	}
	return []int{0}
}

// usePassWidth makes the SMO passes run at the given width of passWidths
// until restore is called.
func usePassWidth(lanes int) (restore func()) {
	was512, wasAVX := useAVX512, useAVX
	useAVX512, useAVX = lanes == 8, lanes >= 4
	return func() { useAVX512, useAVX = was512, wasAVX }
}

// checkPass runs both passes of an SMO iteration as the solver does at
// every width of passWidths, each from the same state, and as the scalar
// loop alone, and requires the same bits: every gradient, both WSS2 picks,
// and the next scan's i, j, gmax and gmin. It leaves s as a step leaves it
// and returns the scan.
func checkPass(t *testing.T, s *solver, ri, rj []float64, ci, cj float64, p wss2Pass) violators {
	t.Helper()
	none := pick{math.Inf(-1), -1}
	wantUp, wantDn := s.wss2Scalar(p, 0, none, none)
	ref := *s
	ref.grad = slices.Clone(s.grad)
	u, d := ref.stepScalar(ri, rj, ci, cj, 0, noViolators(), noViolators())
	want := merge(u, d, ref.l)

	var got violators
	for _, lanes := range passWidths() {
		func() {
			defer usePassWidth(lanes)()
			w := *s
			w.grad = slices.Clone(s.grad)
			up, dn := w.wss2(p)
			if !samePick(up, wantUp) || !samePick(dn, wantDn) {
				t.Errorf("%d lanes: wss2 picks up %v down %v, scalar %v %v", lanes, up, dn, wantUp, wantDn)
			}
			got = w.step(ri, rj, ci, cj)
			for t2, g := range w.grad {
				if math.Float64bits(g) != math.Float64bits(ref.grad[t2]) {
					t.Fatalf("%d lanes: G[%d] = %v (%#x), scalar %v (%#x)", lanes, t2, g, math.Float64bits(g), ref.grad[t2], math.Float64bits(ref.grad[t2]))
				}
			}
			if got.i != want.i || got.j != want.j ||
				math.Float64bits(got.gmax) != math.Float64bits(want.gmax) ||
				math.Float64bits(got.gmin) != math.Float64bits(want.gmin) {
				t.Errorf("%d lanes: scan %+v, scalar %+v", lanes, got, want)
			}
		}()
	}
	copy(s.grad, ref.grad)
	return got
}

func samePick(a, b pick) bool {
	return a.k == b.k && math.Float64bits(a.v) == math.Float64bits(b.v)
}

// FuzzSMOPass checks the vector passes, at every width the CPU has,
// against the scalar loop on drawn solver states; under noasm, or without
// AVX2, both sides are the scalar loop and the target only exercises it.
func FuzzSMOPass(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{4, 0, 2, 0, 2, 0, 2})
	f.Add([]byte{37, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19})
	f.Add(slices.Repeat([]byte{13, 8, 9, 3}, 40))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, ri, rj, ci, cj, p := passSolver(data)
		checkPass(t, s, ri, rj, ci, cj, p)
	})
}

// TestSMOPassTies pins the tie rule on states built by hand: between equal
// values the lower index wins, whether the two sit in different lanes of
// the vector pass or in different halves, and −G is a sign flip, so a +0
// gradient scans as −0. Every multiplier is free and every a is 2, so
// WSS2's gain orders as b. Each case also runs the differential check.
func TestSMOPassTies(t *testing.T) {
	for _, tc := range []struct {
		name       string
		gu, gd     []float64
		i, j       int
		gmax, gmin float64
		wss2J      int
	}{{
		// −G_1 = −G_2 = −G_5 = 3 lead the up half from lanes 1 and 2 and
		// again in lane 1, and G_{8+k} = −2 at the same k the down half's
		// gmin and WSS2 gain (b = 3 + 2).
		name: "lanes 1 and 2",
		gu:   []float64{0.5, -3, -3, 0.5, 0.5, -3, 0.5, 0.5},
		gd:   []float64{1, -2, -2, 1, 1, -2, 1, 1},
		i:    1, j: 9, gmax: 3, gmin: -2, wss2J: 9,
	}, {
		// gmax: −G_5 = 3 on the up half ties G_{8+0} = 3 on the down half.
		// gmin: −G_0 = −1 ties G_{8+2} = −1. WSS2: b = 3 + G_0 = 4 ties
		// b = 3 − G_{8+2} = 4. The up variable's index is the lower each time.
		name: "up and down",
		gu:   []float64{1, 1, 1, 1, 1, -3, 1, 1},
		gd:   []float64{3, 2, -1, 2, 2, 2, 2, 2},
		i:    5, j: 0, gmax: 3, gmin: -1, wss2J: 0,
	}, {
		name: "signed zero",
		gu:   []float64{0, 0, 0, 0},
		gd:   []float64{-1, -1, -1, -1},
		i:    0, j: 4, gmax: math.Copysign(0, -1), gmin: -1, wss2J: 4,
	}} {
		t.Run(tc.name, func(t *testing.T) {
			l := len(tc.gu)
			zero := make([]float64, l)
			s := &solver{l: l, n: 2 * l, c: 4, alpha: make([]float64, 2*l), diag: make([]float64, l),
				grad: append(slices.Clone(tc.gu), tc.gd...), cache: &rowCache{rows: make([][]float64, l)}}
			for t := range s.alpha {
				s.alpha[t] = 1.5
			}
			for k := range l {
				s.diag[k], s.cache.rows[k] = 1, zero
			}
			if j := s.secondOrder(violators{gmax: tc.gmax, i: 0, j: -1}); j != tc.wss2J {
				t.Errorf("WSS2 j = %d, want %d", j, tc.wss2J)
			}
			v := checkPass(t, s, zero, zero, 0, 0, wss2Pass{ri: zero, qi: 1, s2: 2, gmax: tc.gmax})
			if v.i != tc.i || v.j != tc.j || math.Float64bits(v.gmax) != math.Float64bits(tc.gmax) || v.gmin != tc.gmin {
				t.Errorf("scan %+v, want i %d j %d gmax %v gmin %v", v, tc.i, tc.j, tc.gmax, tc.gmin)
			}
		})
	}
}

// TestSMOPassSignedZeroLanes: at every width, a half's gmax scan sees +0
// and −0 in different lanes of a full 8-block, equal as values, so the
// lowest index wins and its own zero is the one reported. The update adds
// zeros that keep the signs: −0 on the up half, +0 on the down half.
func TestSMOPassSignedZeroLanes(t *testing.T) {
	negZero := math.Copysign(0, -1)
	for _, down := range []bool{false, true} {
		for _, z := range []float64{0, negZero} {
			const l = 16
			s := &solver{l: l, n: 2 * l, c: 4, alpha: make([]float64, 2*l), grad: make([]float64, 2*l), diag: make([]float64, l)}
			for k := range l {
				s.alpha[k], s.alpha[l+k] = 1.5, 1.5
				s.grad[k], s.grad[l+k] = 1, -1 // −G = −1 up, G = −1 down
			}
			at, c, want := 2, negZero, -z
			if down {
				at, c, want = l+3, 0, z
			}
			s.grad[at], s.grad[at+7] = z, math.Copysign(0, -z)
			zero := make([]float64, l)
			v := checkPass(t, s, zero, zero, c, c, wss2Pass{ri: zero, qi: 1, s2: 2})
			if v.i != at || math.Float64bits(v.gmax) != math.Float64bits(want) {
				t.Errorf("G = %v at %d: gmax %v at %d, want %v", z, at, v.gmax, v.i, want)
			}
		}
	}
}
