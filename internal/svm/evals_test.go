package svm_test

import (
	"context"
	"sync"
	"testing"
	"unsafe"

	"vmtherm/internal/core"
	"vmtherm/internal/dataset"
	"vmtherm/internal/svm"
	"vmtherm/internal/workload"
)

// TestTrainStableEvaluatesEachPairOncePerGamma counts the Kernel.Eval calls
// of core.TrainStable with FastStableConfig on the end-to-end benchmark's
// 160 training cases: the five folds, three Cs and the final fit all train
// from one Gram matrix per γ, so every unordered pair of samples is
// evaluated exactly once per γ, the diagonal included, and nothing else is.
func TestTrainStableEvaluatesEachPairOncePerGamma(t *testing.T) {
	ctx := context.Background()
	cases, err := workload.GenerateCases(workload.DefaultGenOptions(), 2016, "train", 160)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := dataset.Build(ctx, cases, dataset.DefaultBuildOptions(2016))
	if err != nil {
		t.Fatal(err)
	}

	type pair struct {
		gamma float64
		a, b  uintptr
	}
	var mu sync.Mutex
	evals := map[pair]int{}
	restore := svm.SetEvalHook(func(k svm.Kernel, x, z []float64) {
		a, b := uintptr(unsafe.Pointer(&x[0])), uintptr(unsafe.Pointer(&z[0]))
		mu.Lock()
		evals[pair{k.Gamma, min(a, b), max(a, b)}]++
		mu.Unlock()
	})
	cfg := core.FastStableConfig()
	_, err = core.TrainStable(ctx, recs, cfg)
	restore()
	if err != nil {
		t.Fatal(err)
	}

	n := len(recs)
	perGamma := map[float64]int{}
	calls := 0
	for p, c := range evals {
		if c > 1 {
			t.Errorf("γ %g: a sample pair evaluated %d times", p.gamma, c)
		}
		perGamma[p.gamma]++
		calls += c
	}
	for _, g := range cfg.Grid.Gammas {
		if got, want := perGamma[g], n*(n+1)/2; got != want {
			t.Errorf("γ %g: %d distinct pairs evaluated, want %d", g, got, want)
		}
	}
	if len(perGamma) != len(cfg.Grid.Gammas) {
		t.Errorf("evaluations at %d γs, the grid has %d", len(perGamma), len(cfg.Grid.Gammas))
	}
	t.Logf("%d Kernel.Eval calls over %d samples and %d γs", calls, n, len(perGamma))
}
