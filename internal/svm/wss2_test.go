package svm

import (
	"math"
	"slices"
	"testing"

	"vmtherm/internal/mathx"
)

// newSolver sets up SMO over the samples x, evaluating kernel rows as the
// solver asks for them.
func newSolver(x [][]float64, z []float64, k Kernel, c, eps, tol float64, maxIt int, rule SelectionRule) *solver {
	return cacheSolver(newRowCache(len(x), k, x), z, c, eps, tol, maxIt, rule)
}

// wss2Data builds a moderately hard regression problem.
func wss2Data(n int, seed int64) ([][]float64, []float64) {
	g := mathx.NewRNG(seed)
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		a := g.Uniform(-2, 2)
		b := g.Uniform(-2, 2)
		x[i] = []float64{a, b}
		y[i] = math.Sin(a)*math.Cos(b) + 0.3*a*b + g.Normal(0, 0.05)
	}
	return x, y
}

func TestSecondOrderMatchesFirstOrderPredictions(t *testing.T) {
	x, y := wss2Data(120, 33)
	p1 := TrainParams{Kernel: Kernel{Gamma: 0.7}, C: 10, Epsilon: 0.05,
		Selection: MaxViolatingPair}
	p2 := p1
	p2.Selection = SecondOrder
	m1, err := Train(x, y, p1)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Train(x, y, p2)
	if err != nil {
		t.Fatal(err)
	}
	// Both solve the same convex problem: predictions must agree to within
	// the stopping tolerance.
	g := mathx.NewRNG(34)
	for i := 0; i < 50; i++ {
		probe := []float64{g.Uniform(-2, 2), g.Uniform(-2, 2)}
		a, err := m1.Predict(probe)
		if err != nil {
			t.Fatal(err)
		}
		b, err := m2.Predict(probe)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(a-b) > 0.05 {
			t.Errorf("rules disagree at %v: %v vs %v", probe, a, b)
		}
	}
}

func TestSecondOrderConvergesInFewerIterations(t *testing.T) {
	x, y := wss2Data(200, 35)
	p1 := TrainParams{Kernel: Kernel{Gamma: 0.7}, C: 50, Epsilon: 0.01,
		Selection: MaxViolatingPair}
	p2 := p1
	p2.Selection = SecondOrder
	m1, err := Train(x, y, p1)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Train(x, y, p2)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("iterations: first-order %d, second-order %d", m1.Iters, m2.Iters)
	// WSS2's whole point: strictly fewer iterations on non-trivial problems.
	if m2.Iters >= m1.Iters {
		t.Errorf("second-order used %d iterations, first-order %d", m2.Iters, m1.Iters)
	}
}

func TestSecondOrderKKT(t *testing.T) {
	// The KKT certificate must hold for WSS2 solutions too.
	x, y := wss2Data(80, 36)
	const c = 5.0
	m, err := Train(x, y, TrainParams{Kernel: Kernel{Gamma: 0.5}, C: c,
		Epsilon: 0.1, Selection: SecondOrder})
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, b := range m.Coef {
		if math.Abs(b) > c+1e-9 {
			t.Errorf("beta %v violates box constraint", b)
		}
		sum += b
	}
	if math.Abs(sum) > 1e-6 {
		t.Errorf("sum of betas = %v, want 0", sum)
	}
}

func TestValidateRejectsUnknownSelection(t *testing.T) {
	p := defaultTrainParams(2)
	p.Selection = SelectionRule(9)
	if err := p.Validate(); err == nil {
		t.Error("unknown selection rule should fail validation")
	}
}

// TestRowCacheEvictionMatchesResident runs the FIFO eviction path, which
// real training reaches only past l = 4096 samples: with room for three
// kernel rows, rows are dropped and recomputed throughout, and the solution
// — every β_i, rho and the iteration count — must equal the bits of a run
// that keeps every row.
func TestRowCacheEvictionMatchesResident(t *testing.T) {
	x, y := wss2Data(80, 37)
	k := Kernel{Gamma: 0.7}
	for _, rule := range []SelectionRule{MaxViolatingPair, SecondOrder} {
		resident := newSolver(x, y, k, 10, 0.05, 1e-3, 1_000_000, rule)
		wantBeta, wantRho, wantIters, err := resident.solve()
		if err != nil {
			t.Fatal(err)
		}
		evicting := newSolver(x, y, k, 10, 0.05, 1e-3, 1_000_000, rule)
		evicting.cache.maxRows = 3
		beta, rho, iters, err := evicting.solve()
		if err != nil {
			t.Fatal(err)
		}
		if used, kept := computedRows(resident.cache), computedRows(evicting.cache); used <= 3 || kept > 3 {
			t.Fatalf("rule %d: %d rows used, %d kept: eviction never ran", rule, used, kept)
		}
		if iters != wantIters || math.Float64bits(rho) != math.Float64bits(wantRho) {
			t.Errorf("rule %d: iters %d rho %v, want %d %v", rule, iters, rho, wantIters, wantRho)
		}
		for i := range beta {
			if math.Float64bits(beta[i]) != math.Float64bits(wantBeta[i]) {
				t.Fatalf("rule %d: beta[%d] = %v, want %v", rule, i, beta[i], wantBeta[i])
			}
		}
	}
}

func computedRows(c *rowCache) int {
	n := 0
	for _, r := range c.rows {
		if r != nil {
			n++
		}
	}
	return n
}

// filterState is a solver whose WSS2 scan, with wss2Pass{ri: 0, qi: 0,
// s2: 2, gmax: 0}, sees at k the second-order coefficient a[k] for both
// halves and b = bu[k] for the up variable, b = bd[k] for the down one.
// Multipliers are free (1.5 of C = 4) unless the case sets them.
type filterState struct {
	a, bu, bd, au, ad []float64
}

func newFilterState(l int) *filterState {
	f := &filterState{}
	for _, v := range []*[]float64{&f.a, &f.bu, &f.bd, &f.au, &f.ad} {
		*v = make([]float64, l)
	}
	for k := range l {
		f.a[k], f.bu[k], f.bd[k] = 1, 0.25, 0.25
		f.au[k], f.ad[k] = 1.5, 1.5
	}
	return f
}

func (f *filterState) solver() (*solver, wss2Pass) {
	l := len(f.a)
	s := &solver{l: l, n: 2 * l, c: 4, alpha: append(slices.Clone(f.au), f.ad...),
		grad: make([]float64, 2*l), diag: slices.Clone(f.a)}
	for k := range l {
		s.grad[k], s.grad[l+k] = f.bu[k], -f.bd[k]
	}
	return s, wss2Pass{ri: make([]float64, l), s2: 2}
}

// TestWSS2FilterEdges runs WSS2's scan for j at every width of passWidths
// on states built around the 8-lane filter's edges and requires
// wss2Scalar's picks to the bit: a lane whose estimate b²·VRCP14PD(a)
// cannot be trusted must survive the filter, and a lane within 2^-10 of
// its half's largest estimate must too. The states span three 8-blocks and
// a scalar tail of three.
func TestWSS2FilterEdges(t *testing.T) {
	if lanes := passWidths()[0]; lanes > 0 {
		t.Logf("svm smo passes: served at %d lanes", lanes)
	} else {
		t.Log("svm smo passes: scalar")
	}
	const l = 27
	tiny := math.SmallestNonzeroFloat64
	for _, tc := range []struct {
		name string
		set  func(f *filterState)
	}{
		{"a between 0 and tau", func(f *filterState) {
			f.a[3], f.bu[3], f.bd[3] = 0, 1, 1 // floored: gain 1/tau
			f.a[9], f.bu[9], f.bd[9] = -1, 1, 1
			f.a[17], f.bu[17] = 1e-13, 1 // 1e13, above 1/tau
			f.a[20], f.bu[20], f.bd[20] = 1e-13, 1, 1
			f.a[12], f.bd[12] = 5e-13, 1
		}},
		{"subnormal a", func(f *filterState) {
			// What the linear kernel gives on features near 1e-155.
			f.a[2], f.bu[2] = 1e-310, 1e-150 // b²/a = 1e10
			f.a[11], f.bd[11] = 1.5e-308, 1e-160
			f.bd[19] = 8.16e-7 // a = 1: about the gain at 11
			f.a[22], f.bu[22], f.bd[22] = tiny, 1e-170, 1e-170
			f.a[25], f.bu[25] = 4*tiny, 1e-155
		}},
		{"a above 2^1000", func(f *filterState) {
			// What a polynomial kernel of high degree gives.
			f.a[4], f.bu[4], f.bd[4] = 0x1p1000*3, 1e154, 1e154
			f.a[13], f.bu[13], f.bd[13] = math.MaxFloat64, 1e154, 1e154
			f.bu[21], f.bd[6] = 0.77, 0.771
			f.a[24], f.bu[24] = 0x1p1023, 1.3e154
		}},
		{"b squared overflows", func(f *filterState) {
			f.bu[5], f.bd[5] = 1e160, 1e160 // Inf in both halves
			f.bu[14] = 1e200
			f.a[7], f.bd[7] = 1e-10, 1e154 // finite b², gain overflows
			f.bd[26] = math.MaxFloat64
		}},
		{"b squared subnormal", func(f *filterState) {
			for k := range l {
				f.bu[k], f.bd[k] = 1e-170, 1e-170 // b² = 0
			}
			f.bu[6], f.bd[18] = 1e-160, 3e-162
			f.bu[15], f.bd[10] = 1e-160, 1e-161
			f.a[15] = 0.5
		}},
		{"all gains zero", func(f *filterState) {
			for k := range l {
				f.bu[k], f.bd[k] = 1e-170, 1e-170
			}
		}},
		{"no up candidate", func(f *filterState) {
			for k := range l {
				f.au[k] = 0
			}
			f.bd[9] = 2
		}},
		{"no candidate", func(f *filterState) {
			for k := range l {
				f.au[k], f.ad[k] = 0, 4
			}
		}},
		{"no b above zero", func(f *filterState) {
			for k := range l {
				f.bu[k], f.bd[k] = -1, math.Copysign(0, -1)
			}
			f.bu[3] = 0
		}},
		{"ties across lanes and halves", func(f *filterState) {
			for _, k := range []int{5, 13, 10, 21, 26} {
				f.bu[k] = 3
			}
			for _, k := range []int{2, 10, 18, 25} {
				f.bd[k] = 3
			}
		}},
		{"estimates out of order", func(f *filterState) {
			// VRCP14PD's relative error is about +5.4e-5 at the first a and
			// −4.1e-5 at the second, so the lane with the lower gain has the
			// higher estimate: the true pick survives by the margin alone.
			lowA, lowB := 1.9440150975942463, 1.3835321506650207
			highA := 1.0155953592243139
			f.a[3], f.bu[3] = lowA, lowB
			f.a[12], f.bu[12] = highA, 1
			f.a[9], f.bd[9] = highA, 1
			f.a[20], f.bd[20] = lowA, lowB
		}},
		{"around the threshold", func(f *filterState) {
			// gain = 1/a with b = 1: the largest at 23, its near-ties and the
			// lanes either side of (1 − 2^-10) of it earlier.
			d := []float64{0x1p-52, 0x1p-40, 0x1p-14, 0x1p-13, 0x1p-11,
				1/(1-0x1p-10) - 1 - 0x1p-30, 1/(1-0x1p-10) - 1 + 0x1p-30, 0x1p-9}
			for i, dk := range d {
				f.a[2*i+1], f.bu[2*i+1], f.bd[2*i+1] = 1+dk, 1, 1
			}
			f.bu[23], f.bd[17] = 1, 1
			f.a[25], f.bu[25] = 1, 1
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := newFilterState(l)
			tc.set(f)
			s, p := f.solver()
			none := pick{math.Inf(-1), -1}
			wantUp, wantDn := s.wss2Scalar(p, 0, none, none)
			for _, lanes := range passWidths() {
				func() {
					defer usePassWidth(lanes)()
					if up, dn := s.wss2(p); !samePick(up, wantUp) || !samePick(dn, wantDn) {
						t.Errorf("%d lanes: picks up %v down %v, scalar %v %v", lanes, up, dn, wantUp, wantDn)
					}
				}()
			}
			t.Logf("picks up %v down %v", wantUp, wantDn)
		})
	}
}
