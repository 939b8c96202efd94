package mlgrid_test

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"vmtherm/internal/core"
	"vmtherm/internal/dataset"
	"vmtherm/internal/mathx"
	"vmtherm/internal/mlgrid"
	"vmtherm/internal/svm"
	"vmtherm/internal/workload"
)

var updateGolden = flag.Bool("update-golden", false, "regenerate testdata golden files")

// benchmarkProblem is what core.TrainStable searches on the end-to-end
// benchmark's training set: the 160 cases of dataset seed 2016, 16
// features scaled to [-1, 1].
func benchmarkProblem(t *testing.T) ([][]float64, []float64) {
	ctx := context.Background()
	cases, err := workload.GenerateCases(workload.DefaultGenOptions(), 2016, "train", 160)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := dataset.Build(ctx, cases, dataset.DefaultBuildOptions(2016))
	if err != nil {
		t.Fatal(err)
	}
	x, y := dataset.FeaturesAndTargets(recs)
	scaler, err := svm.NewScaler(-1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := scaler.Fit(x); err != nil {
		t.Fatal(err)
	}
	xs, err := scaler.TransformAll(x)
	if err != nil {
		t.Fatal(err)
	}
	return xs, y
}

// smallProblem is a seeded 3-feature regression in [-1, 1]³ with 48 rows,
// small enough for Default()'s 108 points × 10 folds.
func smallProblem(*testing.T) ([][]float64, []float64) {
	g := mathx.NewRNG(2016)
	x := make([][]float64, 48)
	y := make([]float64, len(x))
	for i := range x {
		a, b, c := g.Uniform(-1, 1), g.Uniform(-1, 1), g.Uniform(-1, 1)
		x[i] = []float64{a, b, c}
		y[i] = 50 + 6*math.Sin(2*a) + 3*b*c + g.Normal(0, 0.3)
	}
	return x, y
}

// TestSearchGolden pins every grid point Search scores, in the order it
// returns them, against lines recorded before the solver shared one Gram
// matrix per γ: C, γ, ε and the cross-validated MSE as bits, and the error.
// Two searches: core.FastStableConfig's grid on the benchmark's training
// set, and Default()'s on a small seeded problem. The folds are scored
// through the serving kernel, whose AVX2 routine and portable path differ
// in the last bits, so the golden holds one block per kernel and the test
// checks the one that ran.
//
//	go test ./internal/mlgrid -run TestSearchGolden -update-golden
//	go test ./internal/mlgrid -run TestSearchGolden -update-golden -tags noasm
func TestSearchGolden(t *testing.T) {
	kernel := svm.RBFKernelName() + ":"
	var got []string
	for _, run := range []struct {
		name    string
		problem func(*testing.T) ([][]float64, []float64)
		cfg     mlgrid.Config
	}{
		{"fast", benchmarkProblem, core.FastStableConfig().Grid},
		{"default", smallProblem, mlgrid.Default()},
	} {
		x, y := run.problem(t)
		_, all, err := mlgrid.Search(context.Background(), x, y, run.cfg)
		if err != nil {
			t.Fatalf("%s: %v", run.name, err)
		}
		for i, r := range all {
			got = append(got, fmt.Sprintf("%s %-7s %3d C %016x gamma %016x eps %016x mse %016x err %v",
				kernel, run.name, i, math.Float64bits(r.Point.C), math.Float64bits(r.Point.Gamma),
				math.Float64bits(r.Point.Epsilon), math.Float64bits(r.MSE), r.Err))
		}
	}

	path := filepath.Join("testdata", "search_golden.txt")
	raw, err := os.ReadFile(path)
	if err != nil && !(*updateGolden && os.IsNotExist(err)) {
		t.Fatal(err)
	}
	var lines []string
	if len(raw) > 0 {
		lines = strings.Split(strings.TrimSpace(string(raw)), "\n")
	}
	ours := func(l string) bool { return strings.HasPrefix(l, kernel) }
	if *updateGolden {
		lines = append(slices.DeleteFunc(lines, ours), got...)
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want := slices.DeleteFunc(lines, func(l string) bool { return !ours(l) })
	if len(want) == 0 {
		t.Fatalf("%s has no lines for the %s kernel", path, kernel)
	}
	for i := range max(len(got), len(want)) {
		if i >= len(got) || i >= len(want) || got[i] != want[i] {
			t.Errorf("point %d differs:\n got %s\nwant %s", i, at(got, i), at(want, i))
		}
	}
}

func at(lines []string, i int) string {
	if i < len(lines) {
		return lines[i]
	}
	return "<none>"
}
