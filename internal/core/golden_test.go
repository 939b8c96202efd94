package core

import (
	"bytes"
	"context"
	"crypto/sha256"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"vmtherm/internal/dataset"
	"vmtherm/internal/svm"
	"vmtherm/internal/workload"
)

var updateGolden = flag.Bool("update-golden", false, "regenerate testdata golden files")

// TestTrainStableGolden pins the ψ_stable pipeline bit for bit against
// digests recorded before the SMO loops were split into up and down halves:
// FastStableConfig on the 160 training cases the end-to-end benchmark
// builds at dataset seed 2016 — the saved model's bytes, the winning grid
// point and its cross-validated MSE. Training runs the same arithmetic on
// every build, but the folds are scored through the serving kernel, whose
// AVX2 routine and portable path differ in the last bits, so the golden
// holds one line per kernel and the test checks the one that ran.
//
//	go test ./internal/core -run TestTrainStableGolden -update-golden
//	go test ./internal/core -run TestTrainStableGolden -update-golden -tags noasm
func TestTrainStableGolden(t *testing.T) {
	ctx := context.Background()
	cases, err := workload.GenerateCases(workload.DefaultGenOptions(), 2016, "train", 160)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := dataset.Build(ctx, cases, dataset.DefaultBuildOptions(2016))
	if err != nil {
		t.Fatal(err)
	}
	p, err := TrainStable(ctx, recs, FastStableConfig())
	if err != nil {
		t.Fatal(err)
	}
	var saved bytes.Buffer
	if err := p.Save(&saved); err != nil {
		t.Fatal(err)
	}
	best := p.Best()
	kernel := svm.RBFKernelName() + ":"
	got := fmt.Sprintf("%s save sha256 %x best C %016x gamma %016x epsilon %016x cv_mse %016x",
		kernel, sha256.Sum256(saved.Bytes()), math.Float64bits(best.C), math.Float64bits(best.Gamma),
		math.Float64bits(best.Epsilon), math.Float64bits(p.CVMSE()))

	path := filepath.Join("testdata", "train_stable_golden.txt")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	i := slices.IndexFunc(lines, func(l string) bool { return strings.HasPrefix(l, kernel) })
	if *updateGolden {
		if i < 0 {
			lines = append(lines, got)
		} else {
			lines[i] = got
		}
		if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if i < 0 {
		t.Fatalf("%s has no line for the %s kernel; got\n%s", path, kernel, got)
	}
	if got != lines[i] {
		t.Fatalf("trained predictor diverged from golden\n got %s\nwant %s", got, lines[i])
	}
}
