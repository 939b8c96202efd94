package baseline

import (
	"context"
	"math"
	"testing"

	"vmtherm/internal/dataset"
	"vmtherm/internal/timeseries"
	"vmtherm/internal/vmm"
	"vmtherm/internal/workload"
)

func buildRecords(t *testing.T, n int, seed int64) []dataset.Record {
	t.Helper()
	cases, err := workload.GenerateCases(workload.DefaultGenOptions(), seed, "bl", n)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := dataset.Build(context.Background(), cases, dataset.DefaultBuildOptions(seed))
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

func TestAllBaselinesFitAndPredict(t *testing.T) {
	recs := buildRecords(t, 40, 1)
	train, test, err := dataset.Split(recs, 0.25, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range All() {
		t.Run(b.Name(), func(t *testing.T) {
			mse, err := Evaluate(b, train, test)
			if err != nil {
				t.Fatal(err)
			}
			if math.IsNaN(mse) || mse < 0 {
				t.Errorf("MSE = %v", mse)
			}
			// Sanity: predictions are temperatures, not garbage.
			p, err := b.Predict(test[0].Features)
			if err != nil {
				t.Fatal(err)
			}
			if p < 0 || p > 150 {
				t.Errorf("prediction %v outside plausible range", p)
			}
		})
	}
}

func TestUnfittedPredictFails(t *testing.T) {
	features := make([]float64, dataset.NumFeatures())
	for _, b := range All() {
		if _, err := b.Predict(features); err == nil {
			t.Errorf("%s: predict before fit should fail", b.Name())
		}
	}
}

func TestFitEmptyFails(t *testing.T) {
	for _, b := range All() {
		if err := b.Fit(nil); err == nil {
			t.Errorf("%s: fit on empty should fail", b.Name())
		}
	}
}

func TestWrongDimensionPredictFails(t *testing.T) {
	recs := buildRecords(t, 20, 2)
	for _, b := range All() {
		if err := b.Fit(recs); err != nil {
			t.Fatal(err)
		}
		if b.Name() == "mean" {
			continue // mean ignores features by design
		}
		if _, err := b.Predict([]float64{1, 2, 3}); err == nil {
			t.Errorf("%s: wrong-dim predict should fail", b.Name())
		}
	}
}

func TestInformedBaselinesBeatMean(t *testing.T) {
	recs := buildRecords(t, 80, 3)
	train, test, err := dataset.Split(recs, 0.25, 3)
	if err != nil {
		t.Fatal(err)
	}
	meanMSE, err := Evaluate(&Mean{}, train, test)
	if err != nil {
		t.Fatal(err)
	}
	rcMSE, err := Evaluate(&RC{}, train, test)
	if err != nil {
		t.Fatal(err)
	}
	linMSE, err := Evaluate(&Linear{}, train, test)
	if err != nil {
		t.Fatal(err)
	}
	if rcMSE >= meanMSE {
		t.Errorf("rc (%v) should beat mean (%v)", rcMSE, meanMSE)
	}
	if linMSE >= meanMSE {
		t.Errorf("linear (%v) should beat mean (%v)", linMSE, meanMSE)
	}
}

func TestDominantClass(t *testing.T) {
	f := make([]float64, dataset.NumFeatures())
	f[idxFracCPU] = 0.2
	f[idxFracMem] = 0.5
	f[idxFracIO] = 0.2
	f[idxFracBurst] = 0.1
	if got := dominantClass(f); got != vmm.MemBound {
		t.Errorf("dominant = %v, want mem-bound", got)
	}
}

func TestTaskProfileUsesDominantClassMeans(t *testing.T) {
	// Build synthetic records: cpu-dominant cases at 80°, io-dominant at 40°.
	mk := func(domIdx int, temp float64) dataset.Record {
		f := make([]float64, dataset.NumFeatures())
		f[domIdx] = 1
		return dataset.Record{Features: f, StableTemp: temp}
	}
	recs := []dataset.Record{
		mk(idxFracCPU, 80), mk(idxFracCPU, 82),
		mk(idxFracIO, 40), mk(idxFracIO, 42),
	}
	tp := &TaskProfile{}
	if err := tp.Fit(recs); err != nil {
		t.Fatal(err)
	}
	hot, err := tp.Predict(recs[0].Features)
	if err != nil {
		t.Fatal(err)
	}
	if hot != 81 {
		t.Errorf("cpu-dominant prediction = %v, want 81", hot)
	}
	cold, err := tp.Predict(recs[2].Features)
	if err != nil {
		t.Fatal(err)
	}
	if cold != 41 {
		t.Errorf("io-dominant prediction = %v, want 41", cold)
	}
}

func TestDynamicMethodString(t *testing.T) {
	if LastValue.String() != "last-value" ||
		LinearExtrapolation.String() != "linear-extrapolation" {
		t.Error("method names wrong")
	}
	if DynamicMethod(9).String() != "DynamicMethod(9)" {
		t.Error("unknown method string wrong")
	}
}

func warmupTrace(t *testing.T) *timeseries.Series {
	t.Helper()
	s := &timeseries.Series{}
	for tt := 0.0; tt <= 1200; tt += 5 {
		s.MustAppend(tt, 70-(70-22)*math.Exp(-tt/150))
	}
	return s
}

func TestReplayDynamicLastValueLagsDuringWarmup(t *testing.T) {
	trace := warmupTrace(t)
	mse, mae, err := ReplayDynamic(trace, LastValue, 60)
	if err != nil {
		t.Fatal(err)
	}
	// During warm-up last-value systematically lags; errors must be
	// clearly nonzero.
	if mse <= 0.5 {
		t.Errorf("last-value MSE = %v, expected visible lag error", mse)
	}
	if mae <= 0 || mae*mae > mse+1e-9 {
		t.Errorf("MAE %v inconsistent with MSE %v", mae, mse)
	}
}

func TestReplayDynamicExtrapolationBeatsLastValueOnTrend(t *testing.T) {
	trace := warmupTrace(t)
	lvMSE, _, err := ReplayDynamic(trace, LastValue, 60)
	if err != nil {
		t.Fatal(err)
	}
	leMSE, _, err := ReplayDynamic(trace, LinearExtrapolation, 60)
	if err != nil {
		t.Fatal(err)
	}
	if leMSE >= lvMSE {
		t.Errorf("extrapolation (%v) should beat last-value (%v) on a smooth trend", leMSE, lvMSE)
	}
}

func TestReplayDynamicErrors(t *testing.T) {
	if _, _, err := ReplayDynamic(nil, LastValue, 60); err == nil {
		t.Error("nil trace should fail")
	}
	if _, _, err := ReplayDynamic(&timeseries.Series{}, LastValue, 60); err == nil {
		t.Error("empty trace should fail")
	}
	trace := warmupTrace(t)
	if _, _, err := ReplayDynamic(trace, LastValue, 0); err == nil {
		t.Error("zero gap should fail")
	}
	if _, _, err := ReplayDynamic(trace, DynamicMethod(42), 60); err == nil {
		t.Error("unknown method should fail")
	}
	short := &timeseries.Series{}
	short.MustAppend(0, 20)
	if _, _, err := ReplayDynamic(short, LastValue, 60); err == nil {
		t.Error("short trace should fail")
	}
}
