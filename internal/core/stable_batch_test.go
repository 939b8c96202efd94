package core

import (
	"context"
	"math"
	"sync"
	"testing"

	"vmtherm/internal/dataset"
	"vmtherm/internal/workload"
)

// batchModel trains one small real model per test binary.
var (
	batchOnce sync.Once
	batchPred *StablePredictor
	batchRecs []dataset.Record
	batchErr  error
)

func testBatchModel(t *testing.T) (*StablePredictor, []dataset.Record) {
	t.Helper()
	batchOnce.Do(func() {
		cases, err := workload.GenerateCases(workload.DefaultGenOptions(), 23, "cb", 30)
		if err != nil {
			batchErr = err
			return
		}
		recs, err := dataset.Build(context.Background(), cases, dataset.DefaultBuildOptions(23))
		if err != nil {
			batchErr = err
			return
		}
		p, err := TrainStable(context.Background(), recs, FastStableConfig())
		if err != nil {
			batchErr = err
			return
		}
		batchPred, batchRecs = p, recs
	})
	if batchErr != nil {
		t.Fatal(batchErr)
	}
	return batchPred, batchRecs
}

// TestPredictBatchMatchesSingle: there is one ψ_stable evaluator, so over
// every training row PredictFeatures(x), PredictBatch([x])[0] and row i of
// the whole batch carry the same bits.
func TestPredictBatchMatchesSingle(t *testing.T) {
	p, recs := testBatchModel(t)
	rows := make([][]float64, len(recs))
	for i, r := range recs {
		rows[i] = r.Features
	}
	got, err := p.PredictBatch(rows)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(rows) {
		t.Fatalf("got %d predictions for %d rows", len(got), len(rows))
	}
	for i, row := range rows {
		want, err := p.PredictFeatures(row)
		if err != nil {
			t.Fatal(err)
		}
		one, err := p.PredictBatch([][]float64{row})
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(want) != math.Float64bits(got[i]) || math.Float64bits(want) != math.Float64bits(one[0]) {
			t.Errorf("row %d: single %v, batch of one %v, batch row %v differ in their bits", i, want, one[0], got[i])
		}
	}
}

func TestPredictBatchEmpty(t *testing.T) {
	p, _ := testBatchModel(t)
	out, err := p.PredictBatch(nil)
	if err != nil || len(out) != 0 {
		t.Errorf("empty batch: out=%v err=%v", out, err)
	}
}

func TestPredictBatchBadRow(t *testing.T) {
	p, recs := testBatchModel(t)
	if _, err := p.PredictBatch([][]float64{recs[0].Features, {1, 2}}); err == nil {
		t.Error("wrong-dimension row accepted")
	}
}

func TestPredictBatchIntoMatchesBatch(t *testing.T) {
	p, recs := testBatchModel(t)
	rows := make([][]float64, len(recs))
	for i, r := range recs {
		rows[i] = r.Features
	}
	want, err := p.PredictBatch(rows)
	if err != nil {
		t.Fatal(err)
	}
	var s PredictScratch
	out := make([]float64, len(rows))
	// Two passes through one scratch: results must be identical and stable.
	for pass := 0; pass < 2; pass++ {
		if err := p.PredictBatchInto(rows, out, &s); err != nil {
			t.Fatal(err)
		}
		for i := range out {
			if out[i] != want[i] {
				t.Fatalf("pass %d row %d: into %v vs batch %v", pass, i, out[i], want[i])
			}
		}
	}
	// Length mismatch must be rejected.
	if err := p.PredictBatchInto(rows, out[:1], &s); err == nil {
		t.Error("row/output length mismatch accepted")
	}
}

// TestPredictBatchIntoZeroAlloc pins the allocation-free contract of the
// prediction spine: with a warm scratch, scaling + SVM batch evaluation of a
// full round must not allocate at all.
func TestPredictBatchIntoZeroAlloc(t *testing.T) {
	p, recs := testBatchModel(t)
	rows := make([][]float64, len(recs))
	for i, r := range recs {
		rows[i] = r.Features
	}
	out := make([]float64, len(rows))
	var s PredictScratch
	if err := p.PredictBatchInto(rows, out, &s); err != nil { // warm the scratch
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := p.PredictBatchInto(rows, out, &s); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm PredictBatchInto allocates %.1f/op, want 0", allocs)
	}
}
