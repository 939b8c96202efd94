package svm

import (
	"bytes"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"vmtherm/internal/mathx"
)

func TestTrainParamsValidate(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*TrainParams)
		ok     bool
	}{
		{"default", func(*TrainParams) {}, true},
		{"bad kernel", func(p *TrainParams) { p.Kernel.Gamma = -1 }, false},
		{"zero C", func(p *TrainParams) { p.C = 0 }, false},
		{"negative epsilon", func(p *TrainParams) { p.Epsilon = -0.1 }, false},
		{"negative tol", func(p *TrainParams) { p.Tol = -1 }, false},
		{"negative maxIter", func(p *TrainParams) { p.MaxIter = -1 }, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			p := DefaultTrainParams(4)
			tt.mutate(&p)
			err := p.Validate()
			if (err == nil) != tt.ok {
				t.Errorf("Validate = %v, ok %v", err, tt.ok)
			}
		})
	}
}

func TestDefaultGammaIsInverseDim(t *testing.T) {
	if got := DefaultTrainParams(8).Kernel.Gamma; got != 0.125 {
		t.Errorf("gamma = %v, want 1/8", got)
	}
	if got := DefaultTrainParams(0).Kernel.Gamma; got != 1 {
		t.Errorf("gamma for dim 0 = %v, want 1", got)
	}
}

func TestTrainInputValidation(t *testing.T) {
	p := DefaultTrainParams(1)
	if _, err := Train(nil, nil, p); err == nil {
		t.Error("empty data should fail")
	}
	if _, err := Train([][]float64{{1}}, []float64{1, 2}, p); err == nil {
		t.Error("length mismatch should fail")
	}
	if _, err := Train([][]float64{{}}, []float64{1}, p); err == nil {
		t.Error("zero-dim features should fail")
	}
	if _, err := Train([][]float64{{1}, {1, 2}}, []float64{1, 2}, p); err == nil {
		t.Error("ragged rows should fail")
	}
	if _, err := Train([][]float64{{math.NaN()}}, []float64{1}, p); err == nil {
		t.Error("NaN feature should fail")
	}
	if _, err := Train([][]float64{{1}}, []float64{math.Inf(1)}, p); err == nil {
		t.Error("Inf target should fail")
	}
}

// trainLinear1D fits y = 2x + 1 with a linear kernel and checks predictions.
func TestLinearSVRFitsLine(t *testing.T) {
	var x [][]float64
	var y []float64
	for i := -5; i <= 5; i++ {
		x = append(x, []float64{float64(i)})
		y = append(y, 2*float64(i)+1)
	}
	m, err := Train(x, y, TrainParams{
		Kernel:  Kernel{Type: Linear},
		C:       100,
		Epsilon: 0.01,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := -4; i <= 4; i++ {
		got, err := m.Predict([]float64{float64(i)})
		if err != nil {
			t.Fatal(err)
		}
		want := 2*float64(i) + 1
		// ε-SVR is accurate to roughly the tube width.
		if math.Abs(got-want) > 0.05 {
			t.Errorf("predict(%d) = %v, want %v", i, got, want)
		}
	}
}

func TestEpsilonTubeIgnoresSmallNoise(t *testing.T) {
	// With a wide tube, noisy samples inside the tube yield few SVs.
	g := mathx.NewRNG(1)
	var x [][]float64
	var y []float64
	for i := 0; i < 60; i++ {
		xi := g.Uniform(-3, 3)
		x = append(x, []float64{xi})
		y = append(y, 0.5*xi+g.Normal(0, 0.05))
	}
	wide, err := Train(x, y, TrainParams{Kernel: Kernel{Type: Linear}, C: 10, Epsilon: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	narrow, err := Train(x, y, TrainParams{Kernel: Kernel{Type: Linear}, C: 10, Epsilon: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	if wide.NumSV() >= narrow.NumSV() {
		t.Errorf("wide tube SVs (%d) should be fewer than narrow tube SVs (%d)",
			wide.NumSV(), narrow.NumSV())
	}
}

func TestRBFSVRFitsSmoothFunction(t *testing.T) {
	// Fit sin(x) on [0, 2π]; RBF must interpolate well between samples.
	var x [][]float64
	var y []float64
	for i := 0; i <= 40; i++ {
		xi := float64(i) / 40 * 2 * math.Pi
		x = append(x, []float64{xi})
		y = append(y, math.Sin(xi))
	}
	m, err := Train(x, y, TrainParams{
		Kernel:  Kernel{Type: RBF, Gamma: 1},
		C:       50,
		Epsilon: 0.01,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i <= 20; i++ {
		xi := (float64(i) + 0.5) / 21 * 2 * math.Pi
		got, err := m.Predict([]float64{xi})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-math.Sin(xi)) > 0.08 {
			t.Errorf("sin(%v): predict %v, want %v", xi, got, math.Sin(xi))
		}
	}
}

func TestKKTConditions(t *testing.T) {
	g := mathx.NewRNG(3)
	var x [][]float64
	var y []float64
	for i := 0; i < 80; i++ {
		a := g.Uniform(-2, 2)
		b := g.Uniform(-2, 2)
		x = append(x, []float64{a, b})
		y = append(y, a*a-b+g.Normal(0, 0.1))
	}
	const c = 5.0
	const eps = 0.2
	m, err := Train(x, y, TrainParams{Kernel: Kernel{Type: RBF, Gamma: 0.5}, C: c, Epsilon: eps})
	if err != nil {
		t.Fatal(err)
	}

	// Reconstruct per-sample beta: zero for non-SVs.
	beta := map[int]float64{}
	for i, sv := range m.SV {
		for j, xi := range x {
			if equalVec(sv, xi) {
				beta[j] = m.Coef[i]
				break
			}
		}
	}

	var sum float64
	for _, b := range beta {
		// Box constraint: |β| ≤ C.
		if math.Abs(b) > c+1e-9 {
			t.Errorf("beta %v violates box constraint C=%v", b, c)
		}
		sum += b
	}
	// Equality constraint: Σβ = 0.
	if math.Abs(sum) > 1e-6 {
		t.Errorf("sum of betas = %v, want 0", sum)
	}

	// Complementary slackness: samples strictly inside the tube carry no
	// coefficient; samples with |β| = C must sit on or outside the tube.
	const slack = 1e-3
	for j, xi := range x {
		pred, err := m.Predict(xi)
		if err != nil {
			t.Fatal(err)
		}
		resid := math.Abs(pred - y[j])
		b := beta[j]
		if resid < eps-slack && b != 0 && math.Abs(b) > 1e-6 {
			t.Errorf("sample %d strictly inside tube (resid %v) has beta %v", j, resid, b)
		}
		if math.Abs(math.Abs(b)-c) < 1e-9 && resid < eps-slack {
			t.Errorf("bound SV %d has residual %v < eps", j, resid)
		}
	}
}

func TestPredictDimensionMismatch(t *testing.T) {
	m, err := Train([][]float64{{1, 2}, {2, 1}, {0, 0}}, []float64{1, 2, 0}, DefaultTrainParams(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Predict([]float64{1}); err == nil {
		t.Error("wrong-dim predict should fail")
	}
	if _, err := m.PredictBatch([][]float64{{1, 2}, {1}}); err == nil {
		t.Error("ragged PredictBatch should fail")
	}
}

func TestTrainDeterministic(t *testing.T) {
	g := mathx.NewRNG(9)
	var x [][]float64
	var y []float64
	for i := 0; i < 50; i++ {
		a := g.Uniform(0, 1)
		x = append(x, []float64{a})
		y = append(y, 3*a)
	}
	p := TrainParams{Kernel: Kernel{Type: RBF, Gamma: 1}, C: 10, Epsilon: 0.05}
	m1, err := Train(x, y, p)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Train(x, y, p)
	if err != nil {
		t.Fatal(err)
	}
	if m1.Rho != m2.Rho || m1.NumSV() != m2.NumSV() {
		t.Error("training is not deterministic")
	}
	v1, _ := m1.Predict([]float64{0.4})
	v2, _ := m2.Predict([]float64{0.4})
	if v1 != v2 {
		t.Error("predictions differ across identical trainings")
	}
}

func TestMaxIterBudgetError(t *testing.T) {
	g := mathx.NewRNG(2)
	var x [][]float64
	var y []float64
	for i := 0; i < 40; i++ {
		x = append(x, []float64{g.Uniform(-1, 1), g.Uniform(-1, 1)})
		y = append(y, g.Uniform(-1, 1))
	}
	p := TrainParams{Kernel: Kernel{Type: RBF, Gamma: 2}, C: 1000, Epsilon: 0.0001, MaxIter: 3}
	if _, err := Train(x, y, p); err == nil {
		t.Error("tiny iteration budget should fail to converge")
	}
}

func TestConstantTarget(t *testing.T) {
	x := [][]float64{{0}, {1}, {2}, {3}}
	y := []float64{5, 5, 5, 5}
	m, err := Train(x, y, TrainParams{Kernel: Kernel{Type: RBF, Gamma: 1}, C: 10, Epsilon: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	got, err := m.Predict([]float64{1.5})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-5) > 0.11 {
		t.Errorf("constant fit predicts %v, want ≈5 (within ε)", got)
	}
}

func TestModelIORoundTrip(t *testing.T) {
	var x [][]float64
	var y []float64
	for i := 0; i <= 20; i++ {
		xi := float64(i) / 10
		x = append(x, []float64{xi, 1 - xi, 0}) // third feature constant zero
		y = append(y, xi*xi)
	}
	m, err := Train(x, y, TrainParams{Kernel: Kernel{Type: RBF, Gamma: 0.8}, C: 20, Epsilon: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := WriteModel(&sb, m); err != nil {
		t.Fatal(err)
	}
	back, err := ReadModel(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if back.Dim != m.Dim {
		t.Fatalf("round-trip dim = %d, want %d", back.Dim, m.Dim)
	}
	if back.NumSV() != m.NumSV() {
		t.Fatalf("round-trip SV count = %d, want %d", back.NumSV(), m.NumSV())
	}
	for _, probe := range [][]float64{{0.33, 0.67, 0}, {1.5, -0.5, 0}} {
		a, _ := m.Predict(probe)
		b, _ := back.Predict(probe)
		if math.Abs(a-b) > 1e-9 {
			t.Errorf("round-trip prediction differs: %v vs %v", a, b)
		}
	}
}

func TestReadModelRejectsGarbage(t *testing.T) {
	cases := map[string]string{
		"not svr":     "svm_type c_svc\nkernel_type rbf\ngamma 1\nrho 0\nSV\n",
		"bad kernel":  "svm_type epsilon_svr\nkernel_type warp\nrho 0\nSV\n",
		"missing rho": "svm_type epsilon_svr\nkernel_type linear\nSV\n",
		"bad sv":      "svm_type epsilon_svr\nkernel_type linear\nrho 0\nSV\n0.5 zero:1\n",
		"bad index":   "svm_type epsilon_svr\nkernel_type linear\nrho 0\nSV\n0.5 0:1\n",
		"bad count":   "svm_type epsilon_svr\nkernel_type linear\ntotal_sv 5\nrho 0\nSV\n0.5 1:1\n",
	}
	for name, text := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := ReadModel(strings.NewReader(text)); err == nil {
				t.Error("expected parse error")
			}
		})
	}
}

// untrustedModels are files ReadModel used to accept: numbers that poison
// every prediction, and sizes it allocated from without looking.
var untrustedModels = map[string]string{
	"nan gamma":     "svm_type epsilon_svr\nkernel_type rbf\ngamma NaN\nrho 0\nSV\n0.5 1:1\n",
	"inf rho":       "svm_type epsilon_svr\nkernel_type rbf\ngamma 1\nrho Inf\nSV\n0.5 1:1\n",
	"nan coef":      "svm_type epsilon_svr\nkernel_type rbf\ngamma 1\nrho 0\nSV\nNaN 1:1\n",
	"inf sv value":  "svm_type epsilon_svr\nkernel_type rbf\ngamma 1\nrho 0\nSV\n0.5 1:Inf\n",
	"inf coef0":     "svm_type epsilon_svr\nkernel_type sigmoid\ngamma 1\ncoef0 -Inf\nrho 0\nSV\n0.5 1:1\n",
	"huge index":    "svm_type epsilon_svr\nkernel_type rbf\ngamma 1\nrho 0\nSV\n1 400000000:1\n",
	"huge dim":      "svm_type epsilon_svr\nkernel_type rbf\ngamma 1\ndim 400000000\nrho 0\nSV\n1 1:1\n",
	"huge sv × dim": "svm_type epsilon_svr\nkernel_type rbf\ngamma 1\ndim 4096\nrho 0\nSV\n" + strings.Repeat("1 1:1\n", maxModelValues/4096+1),
}

func TestReadModelDistrustsTheFile(t *testing.T) {
	for name, text := range untrustedModels {
		t.Run(name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			m, err := ReadModel(strings.NewReader(text))
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Fatalf("loaded: dim %d, %d SVs, gamma %v, rho %v", m.Dim, m.NumSV(), m.Kernel.Gamma, m.Rho)
			}
			// A rejected file costs what parsing its own text costs; at
			// the parent commit "huge index" cost 3.2 GB and loaded.
			if spent := after.TotalAlloc - before.TotalAlloc; spent > 1<<20 {
				t.Errorf("rejecting the file allocated %d bytes", spent)
			}
		})
	}
	// The ceilings themselves are inside the accepted range.
	atCeiling := "svm_type epsilon_svr\nkernel_type rbf\ngamma 1\ndim 4096\nrho 0\nSV\n1 4096:1\n"
	if m, err := ReadModel(strings.NewReader(atCeiling)); err != nil || m.Dim != maxModelDim {
		t.Errorf("a %d-feature model was refused: %v", maxModelDim, err)
	}
}

// FuzzReadModel feeds ReadModel arbitrary bytes: it must answer with an
// error or with a model inside the ceilings that predicts one finite row
// without panicking — the -model file is a trust boundary.
func FuzzReadModel(f *testing.F) {
	r := rand.New(rand.NewSource(1))
	for _, m := range []*Model{
		syntheticRBF(r, 9, 5, 0.25),
		{Kernel: Kernel{Type: Polynomial, Gamma: 0.5, Coef0: 1, Degree: 3}, SV: [][]float64{{1, 0, 2}}, Coef: []float64{0.5}, Rho: 0.1, Dim: 3},
		{Kernel: Kernel{Type: Linear}, Dim: 2},
	} {
		var buf bytes.Buffer
		if err := WriteModel(&buf, m); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	for name, text := range untrustedModels {
		if name != "huge sv × dim" { // 6 KiB of repeated lines teaches the mutator nothing
			f.Add([]byte(text))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ReadModel(bytes.NewReader(data))
		if err != nil {
			return
		}
		if m.Dim > maxModelDim || len(m.SV)*m.Dim > maxModelValues {
			t.Fatalf("accepted %d support vectors × %d features", len(m.SV), m.Dim)
		}
		var s BatchScratch
		if err := m.PredictBatchInto(make([]float64, m.Dim), make([]float64, 1), &s); err != nil {
			t.Fatalf("accepted model cannot predict: %v", err)
		}
	})
}

func TestWriteModelNil(t *testing.T) {
	var sb strings.Builder
	if err := WriteModel(&sb, nil); err == nil {
		t.Error("nil model should fail")
	}
}

func equalVec(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Property: ε-SVR is translation-equivariant — shifting all targets by a
// constant shifts all predictions by the same constant (the offset absorbs
// it). Checked within solver tolerance.
func TestSVRTranslationEquivariance(t *testing.T) {
	g := mathx.NewRNG(21)
	var x [][]float64
	var y []float64
	for i := 0; i < 50; i++ {
		a := g.Uniform(-1, 1)
		x = append(x, []float64{a})
		y = append(y, a*a+g.Normal(0, 0.05))
	}
	p := TrainParams{Kernel: Kernel{Type: RBF, Gamma: 1}, C: 10, Epsilon: 0.05}
	base, err := Train(x, y, p)
	if err != nil {
		t.Fatal(err)
	}
	const shift = 42.5
	shifted := make([]float64, len(y))
	for i, v := range y {
		shifted[i] = v + shift
	}
	moved, err := Train(x, shifted, p)
	if err != nil {
		t.Fatal(err)
	}
	for _, probe := range []float64{-0.8, -0.2, 0.3, 0.9} {
		a, err := base.Predict([]float64{probe})
		if err != nil {
			t.Fatal(err)
		}
		b, err := moved.Predict([]float64{probe})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs((b-a)-shift) > 0.05 {
			t.Errorf("at %v: shifted prediction moved by %v, want %v", probe, b-a, shift)
		}
	}
}

// Property: training is invariant to sample order (up to solver tolerance).
func TestSVRPermutationInvariance(t *testing.T) {
	g := mathx.NewRNG(22)
	n := 60
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		a := g.Uniform(-2, 2)
		x[i] = []float64{a}
		y[i] = math.Sin(a) + g.Normal(0, 0.02)
	}
	p := TrainParams{Kernel: Kernel{Type: RBF, Gamma: 0.8}, C: 20, Epsilon: 0.05}
	m1, err := Train(x, y, p)
	if err != nil {
		t.Fatal(err)
	}
	perm := mathx.NewRNG(23).Perm(n)
	px := make([][]float64, n)
	py := make([]float64, n)
	for i, j := range perm {
		px[i] = x[j]
		py[i] = y[j]
	}
	m2, err := Train(px, py, p)
	if err != nil {
		t.Fatal(err)
	}
	for _, probe := range []float64{-1.5, -0.5, 0, 0.7, 1.8} {
		a, _ := m1.Predict([]float64{probe})
		b, _ := m2.Predict([]float64{probe})
		if math.Abs(a-b) > 0.05 {
			t.Errorf("at %v: order-dependent predictions %v vs %v", probe, a, b)
		}
	}
}

// Property: with C→0⁺ the model degenerates toward a constant (the mean
// within the ε-tube); with large C it interpolates. Verify the fit error
// shrinks monotonically across three C magnitudes.
func TestSVRCapacityControl(t *testing.T) {
	var x [][]float64
	var y []float64
	for i := 0; i <= 30; i++ {
		a := float64(i) / 30 * 6
		x = append(x, []float64{a})
		y = append(y, math.Sin(a))
	}
	var prevErr float64 = math.Inf(1)
	for _, c := range []float64{0.01, 1, 100} {
		m, err := Train(x, y, TrainParams{Kernel: Kernel{Type: RBF, Gamma: 1}, C: c, Epsilon: 0.01})
		if err != nil {
			t.Fatal(err)
		}
		var sse float64
		for i := range x {
			p, err := m.Predict(x[i])
			if err != nil {
				t.Fatal(err)
			}
			d := p - y[i]
			sse += d * d
		}
		if sse > prevErr+1e-9 {
			t.Errorf("C=%v train SSE %v rose above smaller C's %v", c, sse, prevErr)
		}
		prevErr = sse
	}
}

// Cross-implementation check: a linear-kernel SVR with a tiny ε-tube and a
// large C must converge to (approximately) the ordinary least-squares line —
// two independently implemented fitters agreeing on the same data.
func TestLinearSVRMatchesOLS(t *testing.T) {
	g := mathx.NewRNG(77)
	var xs1d []float64
	var x [][]float64
	var y []float64
	for i := 0; i < 80; i++ {
		xi := g.Uniform(-3, 3)
		xs1d = append(xs1d, xi)
		x = append(x, []float64{xi})
		y = append(y, 4-1.2*xi+g.Normal(0, 0.05))
	}
	ols, err := mathx.FitLinear(xs1d, y)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Train(x, y, TrainParams{
		Kernel: Kernel{Type: Linear}, C: 100, Epsilon: 0.02, Selection: SecondOrder,
	})
	if err != nil {
		t.Fatal(err)
	}
	// SVR minimizes ε-insensitive L1 loss, OLS squared loss; with symmetric
	// noise the fitted lines agree to within a small tolerance.
	for _, probe := range []float64{-2.5, -1, 0, 1.5, 2.8} {
		svr, err := m.Predict([]float64{probe})
		if err != nil {
			t.Fatal(err)
		}
		if diff := math.Abs(svr - ols.At(probe)); diff > 0.1 {
			t.Errorf("at %v: SVR %v vs OLS %v (diff %v)", probe, svr, ols.At(probe), diff)
		}
	}
}
