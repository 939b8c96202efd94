package mlgrid

import (
	"context"
	"math"
	"runtime"
	"testing"
	"time"

	"vmtherm/internal/mathx"
	"vmtherm/internal/svm"
)

// smallConfig keeps unit-test searches fast.
func smallConfig() Config {
	return Config{
		Cs:       []float64{1, 10},
		Gammas:   []float64{0.1, 1},
		Epsilons: []float64{0.1},
		Folds:    4,
		Kernel:   svm.Kernel{Gamma: 1},
	}
}

// quadData generates y = x² with mild noise.
func quadData(n int, seed int64) ([][]float64, []float64) {
	g := mathx.NewRNG(seed)
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		xi := g.Uniform(-2, 2)
		x[i] = []float64{xi}
		y[i] = xi*xi + g.Normal(0, 0.05)
	}
	return x, y
}

func TestConfigValidate(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Config)
		ok     bool
	}{
		{"default small", func(*Config) {}, true},
		{"no Cs", func(c *Config) { c.Cs = nil }, false},
		{"no gammas", func(c *Config) { c.Gammas = nil }, false},
		{"no epsilons", func(c *Config) { c.Epsilons = nil }, false},
		{"one fold", func(c *Config) { c.Folds = 1 }, false},
		{"zero epsilon", func(c *Config) { c.Epsilons = []float64{0, 0.1} }, true},
		{"NaN C", func(c *Config) { c.Cs = []float64{1, math.NaN()} }, false},
		{"zero C", func(c *Config) { c.Cs = []float64{0} }, false},
		{"infinite C", func(c *Config) { c.Cs = []float64{math.Inf(1)} }, false},
		{"NaN gamma", func(c *Config) { c.Gammas = []float64{math.NaN()} }, false},
		{"negative gamma", func(c *Config) { c.Gammas = []float64{0.1, -1} }, false},
		{"NaN epsilon", func(c *Config) { c.Epsilons = []float64{math.NaN()} }, false},
		{"negative epsilon", func(c *Config) { c.Epsilons = []float64{-0.1} }, false},
		{"infinite epsilon", func(c *Config) { c.Epsilons = []float64{math.Inf(1)} }, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := smallConfig()
			tt.mutate(&cfg)
			err := cfg.Validate()
			if (err == nil) != tt.ok {
				t.Errorf("Validate = %v, ok %v", err, tt.ok)
			}
		})
	}
}

func TestDefaultIsEasygridLike(t *testing.T) {
	cfg := Default()
	if cfg.Folds != 10 {
		t.Errorf("default folds = %d, want 10 (paper)", cfg.Folds)
	}
	if err := cfg.Validate(); err != nil {
		t.Error(err)
	}
	// Exponential ladders.
	if cfg.Cs[0] != 0.25 || cfg.Cs[len(cfg.Cs)-1] != 256 {
		t.Errorf("C ladder = %v", cfg.Cs)
	}
}

func TestSearchFindsGoodPoint(t *testing.T) {
	x, y := quadData(80, 42)
	best, all, err := Search(context.Background(), x, y, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 4 {
		t.Fatalf("scored %d points, want 4", len(all))
	}
	if best.Err != nil {
		t.Fatalf("best has error: %v", best.Err)
	}
	// The winning model should actually generalize: re-train and eval.
	kernel := svm.Kernel{Gamma: best.Point.Gamma}
	m, err := svm.Train(x, y, svm.TrainParams{Kernel: kernel, C: best.Point.C, Epsilon: best.Point.Epsilon})
	if err != nil {
		t.Fatal(err)
	}
	probeX, probeY := quadData(40, 1000)
	pred, err := m.PredictBatch(probeX)
	if err != nil {
		t.Fatal(err)
	}
	mse, err := mathx.MSE(pred, probeY)
	if err != nil {
		t.Fatal(err)
	}
	if mse > 0.1 {
		t.Errorf("winning point generalizes poorly: test MSE %v", mse)
	}
	// Results must be sorted ascending by MSE.
	for i := 1; i < len(all); i++ {
		if all[i-1].Err == nil && all[i].Err == nil && all[i-1].MSE > all[i].MSE {
			t.Error("results not sorted by MSE")
		}
	}
}

func TestSearchDeterministic(t *testing.T) {
	x, y := quadData(60, 7)
	cfg := smallConfig()
	b1, _, err := Search(context.Background(), x, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b2, _, err := Search(context.Background(), x, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if b1.Point != b2.Point || b1.MSE != b2.MSE {
		t.Errorf("search not deterministic: %+v vs %+v", b1, b2)
	}
}

func TestSearchParallelMatchesSerial(t *testing.T) {
	x, y := quadData(60, 11)
	cfg := smallConfig()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	bs, _, err := Search(context.Background(), x, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GOMAXPROCS(4)
	bp, _, err := Search(context.Background(), x, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if bs.Point != bp.Point || math.Abs(bs.MSE-bp.MSE) > 1e-12 {
		t.Errorf("parallel result differs: %+v vs %+v", bs, bp)
	}
}

func TestSearchInputValidation(t *testing.T) {
	cfg := smallConfig()
	x, y := quadData(10, 1)
	if _, _, err := Search(context.Background(), x, y[:5], cfg); err == nil {
		t.Error("length mismatch should fail")
	}
	if _, _, err := Search(context.Background(), x[:3], y[:3], cfg); err == nil {
		t.Error("fewer samples than folds should fail")
	}
	bad := cfg
	bad.Folds = 0
	if _, _, err := Search(context.Background(), x, y, bad); err == nil {
		t.Error("invalid config should fail")
	}
	// An ε = NaN point used to come back as the best, with MSE NaN and a
	// nil error.
	bad = cfg
	bad.Epsilons = []float64{math.NaN()}
	if best, _, err := Search(context.Background(), x, y, bad); err == nil {
		t.Errorf("ε = NaN searched, best %+v", best)
	}
}

func TestSearchCancellation(t *testing.T) {
	x, y := quadData(200, 3)
	cfg := Default() // big grid so cancellation lands mid-flight
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	_, _, err := Search(ctx, x, y, cfg)
	if err == nil {
		t.Skip("search finished before cancellation on this machine")
	}
	if ctx.Err() == nil {
		t.Error("error returned but context not done")
	}
}

func TestAssignFoldsBalanced(t *testing.T) {
	folds := assignFolds(103, 10, 5)
	counts := map[int]int{}
	for _, f := range folds {
		counts[f]++
	}
	if len(counts) != 10 {
		t.Fatalf("got %d distinct folds, want 10", len(counts))
	}
	for f, c := range counts {
		if c < 10 || c > 11 {
			t.Errorf("fold %d has %d samples, want 10–11", f, c)
		}
	}
}

func TestAssignFoldsDeterministicBySeed(t *testing.T) {
	a := assignFolds(50, 5, 9)
	b := assignFolds(50, 5, 9)
	c := assignFolds(50, 5, 10)
	same := true
	diff := false
	for i := range a {
		if a[i] != b[i] {
			same = false
		}
		if a[i] != c[i] {
			diff = true
		}
	}
	if !same {
		t.Error("same seed produced different folds")
	}
	if !diff {
		t.Error("different seeds produced identical folds")
	}
}

func TestSearchRefinedAtLeastAsGood(t *testing.T) {
	x, y := quadData(80, 55)
	cfg := smallConfig()
	coarse, _, err := Search(context.Background(), x, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	refined, err := SearchRefined(context.Background(), x, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if refined.MSE > coarse.MSE {
		t.Errorf("refined MSE %v worse than coarse %v", refined.MSE, coarse.MSE)
	}
}

func TestSearchRefinedPropagatesErrors(t *testing.T) {
	bad := smallConfig()
	bad.Folds = 0
	if _, err := SearchRefined(context.Background(), nil, nil, bad); err == nil {
		t.Error("invalid config should fail")
	}
}

func TestRefineAxisGeometric(t *testing.T) {
	axis := refineAxis([]float64{1, 4, 16}, 4)
	if len(axis) != 5 {
		t.Fatalf("axis len = %d", len(axis))
	}
	if axis[0] != 1 || axis[2] != 4 || axis[4] != 16 {
		t.Errorf("axis = %v", axis)
	}
	// Midpoints are geometric means.
	if math.Abs(axis[1]-2) > 1e-12 || math.Abs(axis[3]-8) > 1e-12 {
		t.Errorf("axis midpoints = %v, %v", axis[1], axis[3])
	}
	// Degenerate single-value axis.
	single := refineAxis([]float64{3}, 3)
	if len(single) != 5 {
		t.Errorf("single-coarse axis = %v", single)
	}
}

// TestFitMatchesSearchThenTrain: Fit's best point is Search's, and its
// model, trained from the winning γ's Gram matrix, is svm.Train's on the
// same rows to the bit.
func TestFitMatchesSearchThenTrain(t *testing.T) {
	x, y := quadData(60, 13)
	cfg := smallConfig()
	best, m, err := Fit(context.Background(), x, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := Search(context.Background(), x, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if best.Point != want.Point || math.Float64bits(best.MSE) != math.Float64bits(want.MSE) {
		t.Fatalf("Fit's best %+v, Search's %+v", best, want)
	}
	wm, err := svm.Train(x, y, cfg.params(want.Point))
	if err != nil {
		t.Fatal(err)
	}
	if m.Iters != wm.Iters || math.Float64bits(m.Rho) != math.Float64bits(wm.Rho) || len(m.Coef) != len(wm.Coef) {
		t.Fatalf("Fit's model: iters %d rho %v %d SVs; Train's: %d %v %d", m.Iters, m.Rho, len(m.Coef), wm.Iters, wm.Rho, len(wm.Coef))
	}
	for i := range m.Coef {
		if math.Float64bits(m.Coef[i]) != math.Float64bits(wm.Coef[i]) {
			t.Fatalf("coef %d: %v, Train's %v", i, m.Coef[i], wm.Coef[i])
		}
	}
}

// TestGramSetDropsAfterLastPoint runs the path a search takes when its
// Gram matrices do not all fit under svm.MaxGramValues together: a γ's
// matrix is built once for all its points, dropped after the last, and
// built again (to the same values) when the final fit asks for it.
func TestGramSetDropsAfterLastPoint(t *testing.T) {
	x, _ := quadData(20, 17)
	cfg := smallConfig()
	points := []Point{{C: 1, Gamma: 0.1}, {C: 10, Gamma: 0.1}, {C: 1, Gamma: 1}}
	s := newGramSet(x, cfg, points)
	if !s.keep {
		t.Fatal("two 20×20 matrices should be kept")
	}
	s.keep = false
	g1, err := s.get(0.1)
	if err != nil {
		t.Fatal(err)
	}
	if g2, _ := s.get(0.1); g2 != g1 {
		t.Fatal("second point at γ 0.1 built its own matrix")
	}
	s.done(0.1)
	if s.byGam[0.1].g == nil {
		t.Fatal("matrix dropped with a point still pending")
	}
	s.done(0.1)
	if s.byGam[0.1].g != nil {
		t.Fatal("matrix kept after its last point")
	}
	g3, err := s.get(0.1)
	if err != nil {
		t.Fatal(err)
	}
	if g3 == g1 {
		t.Fatal("the final fit got the dropped matrix")
	}
	p := svm.TrainParams{Kernel: svm.Kernel{Gamma: 0.1}, C: 1, Epsilon: 0.1}
	y := make([]float64, len(x))
	for i := range y {
		y[i] = x[i][0]
	}
	m1, err := svm.TrainGram(g1, nil, y, p)
	if err != nil {
		t.Fatal(err)
	}
	m3, err := svm.TrainGram(g3, nil, y, p)
	if err != nil {
		t.Fatal(err)
	}
	if m1.Iters != m3.Iters || math.Float64bits(m1.Rho) != math.Float64bits(m3.Rho) {
		t.Error("the rebuilt matrix trains another model")
	}
}
