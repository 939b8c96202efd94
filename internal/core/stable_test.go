package core

import (
	"bytes"
	"context"
	"math"
	"strings"
	"testing"

	"vmtherm/internal/dataset"
	"vmtherm/internal/mathx"
	"vmtherm/internal/workload"
)

// buildRecords generates and simulates n cases; cached per test run via the
// deterministic seeds, cheap enough to recompute.
func buildRecords(t *testing.T, n int, seed int64) []dataset.Record {
	t.Helper()
	cases, err := workload.GenerateCases(workload.DefaultGenOptions(), seed, "core", n)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := dataset.Build(context.Background(), cases, dataset.DefaultBuildOptions(seed))
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

func TestTrainStableEmptyRecords(t *testing.T) {
	if _, err := TrainStable(context.Background(), nil, FastStableConfig()); err == nil {
		t.Error("no records should fail")
	}
}

func TestTrainStableAccuracy(t *testing.T) {
	// The headline claim scaled down for unit-test time: train on 60
	// simulated cases, test on 12 held-out ones, MSE should land in the
	// paper's band (≈1, certainly < 2). The full 160/20 version is Fig 1(a).
	records := buildRecords(t, 72, 5)
	train, test, err := dataset.Split(records, 12.0/72, 99)
	if err != nil {
		t.Fatal(err)
	}
	pred, err := TrainStable(context.Background(), train, FastStableConfig())
	if err != nil {
		t.Fatal(err)
	}
	var ps, as []float64
	for _, r := range test {
		p, err := pred.PredictFeatures(r.Features)
		if err != nil {
			t.Fatal(err)
		}
		ps = append(ps, p)
		as = append(as, r.StableTemp)
	}
	mse, err := mathx.MSE(ps, as)
	if err != nil {
		t.Fatal(err)
	}
	if mse > 2.0 {
		t.Errorf("held-out MSE = %v, want < 2.0 (paper band ≈1.1)", mse)
	}
	if pred.NumSV() == 0 {
		t.Error("trained model has no support vectors")
	}
	if pred.CVMSE() <= 0 {
		t.Errorf("CV MSE = %v, want > 0 (noisy data)", pred.CVMSE())
	}
}

func TestPredictCaseMatchesPredictFeatures(t *testing.T) {
	records := buildRecords(t, 24, 6)
	pred, err := TrainStable(context.Background(), records, FastStableConfig())
	if err != nil {
		t.Fatal(err)
	}
	cases, err := workload.GenerateCases(workload.DefaultGenOptions(), 6, "core", 24)
	if err != nil {
		t.Fatal(err)
	}
	c := cases[3]
	viaCase, err := pred.PredictCase(c, 1800)
	if err != nil {
		t.Fatal(err)
	}
	features, err := dataset.Encode(c, 1800)
	if err != nil {
		t.Fatal(err)
	}
	viaFeatures, err := pred.PredictFeatures(features)
	if err != nil {
		t.Fatal(err)
	}
	if viaCase != viaFeatures {
		t.Errorf("PredictCase %v != PredictFeatures %v", viaCase, viaFeatures)
	}
}

func TestPredictFeaturesWrongDim(t *testing.T) {
	records := buildRecords(t, 24, 7)
	pred, err := TrainStable(context.Background(), records, FastStableConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pred.PredictFeatures([]float64{1, 2}); err == nil {
		t.Error("wrong-dimension features should fail")
	}
}

func TestStableSaveLoadRoundTrip(t *testing.T) {
	records := buildRecords(t, 24, 8)
	pred, err := TrainStable(context.Background(), records, FastStableConfig())
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := pred.Save(&sb); err != nil {
		t.Fatal(err)
	}
	back, err := LoadStable(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if back.Best() != pred.Best() {
		t.Errorf("grid point lost: %+v vs %+v", back.Best(), pred.Best())
	}
	if math.Abs(back.CVMSE()-pred.CVMSE()) > 1e-12 {
		t.Error("cv mse lost")
	}
	for _, r := range records[:5] {
		a, err := pred.PredictFeatures(r.Features)
		if err != nil {
			t.Fatal(err)
		}
		b, err := back.PredictFeatures(r.Features)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(a-b) > 1e-9 {
			t.Errorf("round-trip prediction differs: %v vs %v", a, b)
		}
	}
}

// stableFile writes a two-feature, one-SV predictor file by hand so single
// fields can be poisoned.
func stableFile(lower, upper, mins, maxs, gammaLine, svLine string) string {
	return "vmtherm_stable_model v1\nscale_lower " + lower + "\nscale_upper " + upper +
		"\nmins " + mins + "\nmaxs " + maxs + "\nmodel:\n" +
		"svm_type epsilon_svr\nkernel_type rbf\n" + gammaLine + "\ndim 2\ntotal_sv 1\nrho 0\nSV\n" + svLine + "\n"
}

func TestLoadStableRejectsGarbage(t *testing.T) {
	if _, err := LoadStable(strings.NewReader(stableFile("-1", "1", "0 0", "1 1", "gamma 1", "1 1:1"))); err != nil {
		t.Fatalf("the unpoisoned hand-written file does not load: %v", err)
	}
	cases := map[string]string{
		"empty":       "",
		"bad magic":   "not_a_model v9\n",
		"no model":    "vmtherm_stable_model v1\nscale_lower -1\n",
		"bad header":  "vmtherm_stable_model v1\nonlykey\nmodel:\n",
		"missing key": "vmtherm_stable_model v1\nscale_lower -1\nmodel:\n",
		"nan lower":   stableFile("NaN", "1", "0 0", "1 1", "gamma 1", "1 1:1"),
		"inf upper":   stableFile("-1", "+Inf", "0 0", "1 1", "gamma 1", "1 1:1"),
		"nan min":     stableFile("-1", "1", "0 NaN", "1 1", "gamma 1", "1 1:1"),
		"inf max":     stableFile("-1", "1", "0 0", "1 Inf", "gamma 1", "1 1:1"),
		"nan gamma":   stableFile("-1", "1", "0 0", "1 1", "gamma NaN", "1 1:1"),
		"huge index":  stableFile("-1", "1", "0 0", "1 1", "gamma 1", "1 400000000:1"),
		"dim differs": stableFile("-1", "1", "0 0 0", "1 1 1", "gamma 1", "1 1:1"),
	}
	for name, text := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := LoadStable(strings.NewReader(text)); err == nil {
				t.Error("expected error")
			}
		})
	}
}

func TestTrainStableCancellation(t *testing.T) {
	records := buildRecords(t, 24, 9)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := TrainStable(ctx, records, DefaultStableConfig()); err == nil {
		t.Error("cancelled context should fail")
	}
}

// FuzzLoadStable feeds LoadStable arbitrary bytes: an error, or a predictor
// that answers one finite row without panicking. Seeds: a trained
// predictor's own Save output and hand-written files with one poisoned
// field each.
func FuzzLoadStable(f *testing.F) {
	cases, err := workload.GenerateCases(workload.DefaultGenOptions(), 8, "core", 24)
	if err != nil {
		f.Fatal(err)
	}
	records, err := dataset.Build(context.Background(), cases, dataset.DefaultBuildOptions(8))
	if err != nil {
		f.Fatal(err)
	}
	pred, err := TrainStable(context.Background(), records, FastStableConfig())
	if err != nil {
		f.Fatal(err)
	}
	var sb strings.Builder
	if err := pred.Save(&sb); err != nil {
		f.Fatal(err)
	}
	f.Add([]byte(sb.String()))
	f.Add([]byte(stableFile("-1", "1", "0 0", "1 1", "gamma 1", "1 1:1")))
	f.Add([]byte(stableFile("-1", "1", "0 NaN", "1 1", "gamma NaN", "NaN 1:Inf")))
	f.Add([]byte(stableFile("-1", "1", "0 0", "1 1", "gamma 1", "1 400000000:1")))
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := LoadStable(bytes.NewReader(data))
		if err != nil {
			return
		}
		var s PredictScratch
		row := make([]float64, p.scaler.Dim())
		if err := p.PredictBatchInto([][]float64{row}, make([]float64, 1), &s); err != nil {
			t.Fatalf("loaded predictor cannot predict: %v", err)
		}
	})
}
