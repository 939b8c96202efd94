package experiments

import (
	"context"
	"strings"
	"testing"

	"vmtherm/internal/core"
	"vmtherm/internal/dataset"
	"vmtherm/internal/workload"
)

// TestPaperPipelineEndToEnd walks the paper's pipeline through the packages
// that own each step: generate cases, simulate, train, predict stable, run a
// one-host fleet, and replay dynamic prediction — the flow the README's quickstart
// documents.
func TestPaperPipelineEndToEnd(t *testing.T) {
	ctx := context.Background()

	cases, err := workload.GenerateCases(workload.DefaultGenOptions(), 1, "e2e", 40)
	if err != nil {
		t.Fatal(err)
	}
	records, err := dataset.Build(ctx, cases, dataset.DefaultBuildOptions(1))
	if err != nil {
		t.Fatal(err)
	}
	train, test, err := dataset.Split(records, 0.2, 1)
	if err != nil {
		t.Fatal(err)
	}
	model, err := core.TrainStable(ctx, train, core.FastStableConfig())
	if err != nil {
		t.Fatal(err)
	}

	// Stable prediction on held-out records.
	var worst float64
	for _, rec := range test {
		p, err := model.PredictFeatures(rec.Features)
		if err != nil {
			t.Fatal(err)
		}
		if d := p - rec.StableTemp; d*d > worst {
			worst = d * d
		}
	}
	if worst > 25 {
		t.Errorf("worst-case squared error %v implausible for a trained model", worst)
	}

	// Save/Load round trip.
	var sb strings.Builder
	if err := model.Save(&sb); err != nil {
		t.Fatal(err)
	}
	back, err := core.LoadStable(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	a, err := model.PredictFeatures(test[0].Features)
	if err != nil {
		t.Fatal(err)
	}
	b, err := back.PredictFeatures(test[0].Features)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("loaded model predicts differently")
	}

	// Dynamic prediction on a fresh one-host fleet.
	run, err := runCase(cases[0], 7, 1800)
	if err != nil {
		t.Fatal(err)
	}
	phi0, _, err := core.ProfileTrace(run.SensorTemps, core.DefaultTBreakS)
	if err != nil {
		t.Fatal(err)
	}
	stable, err := model.PredictCase(cases[0], 1800)
	if err != nil {
		t.Fatal(err)
	}
	curve, err := core.NewCurve(phi0, stable, core.DefaultTBreakS, core.DefaultCurveDelta)
	if err != nil {
		t.Fatal(err)
	}
	rr, err := core.Replay(run.SensorTemps, curve, core.DefaultDynamicConfig())
	if err != nil {
		t.Fatal(err)
	}
	if rr.MSE <= 0 || rr.MSE > 10 {
		t.Errorf("dynamic replay MSE = %v outside plausible band", rr.MSE)
	}

	// Online predictor matches the replay mechanics.
	pred, err := core.NewDynamicPredictor(curve, core.DefaultDynamicConfig())
	if err != nil {
		t.Fatal(err)
	}
	first, err := run.SensorTemps.First()
	if err != nil {
		t.Fatal(err)
	}
	pred.Observe(first.T, first.V, nil)
	if p := pred.Predict(first.T, nil); p < 0 || p > 120 {
		t.Errorf("online prediction %v implausible", p)
	}
}
