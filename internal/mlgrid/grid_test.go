package mlgrid

import (
	"context"
	"math"
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
		Kernel:   svm.Kernel{Type: svm.RBF, Gamma: 1},
		Seed:     1,
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
		{"negative workers", func(c *Config) { c.Workers = -1 }, false},
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
	if cfg.Kernel.Type != svm.RBF {
		t.Error("default kernel should be RBF (paper)")
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
	kernel := svm.Kernel{Type: svm.RBF, Gamma: best.Point.Gamma}
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
	serial := smallConfig()
	serial.Workers = 1
	parallel := smallConfig()
	parallel.Workers = 4
	bs, _, err := Search(context.Background(), x, y, serial)
	if err != nil {
		t.Fatal(err)
	}
	bp, _, err := Search(context.Background(), x, y, parallel)
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
}

func TestSearchCancellation(t *testing.T) {
	x, y := quadData(200, 3)
	cfg := Default() // big grid so cancellation lands mid-flight
	cfg.Workers = 2
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
