package svm

import (
	"math"
	"testing"

	"vmtherm/internal/mathx"
)

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
	p1 := TrainParams{Kernel: Kernel{Type: RBF, Gamma: 0.7}, C: 10, Epsilon: 0.05,
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
	p1 := TrainParams{Kernel: Kernel{Type: RBF, Gamma: 0.7}, C: 50, Epsilon: 0.01,
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
	m, err := Train(x, y, TrainParams{Kernel: Kernel{Type: RBF, Gamma: 0.5}, C: c,
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
	p := DefaultTrainParams(2)
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
	k := Kernel{Type: RBF, Gamma: 0.7}
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
