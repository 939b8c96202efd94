package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"vmtherm/internal/baseline"
	"vmtherm/internal/core"
	"vmtherm/internal/dataset"
	"vmtherm/internal/mathx"
	"vmtherm/internal/substrate"
	"vmtherm/internal/thermal"
	"vmtherm/internal/workload"
)

// SweepResult is a generic one-axis ablation outcome: parameter → mean MSE.
type SweepResult struct {
	Title  string
	Param  string
	Values []float64
	MSEs   []float64
}

// Render prints the sweep as a two-column table.
func (r *SweepResult) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s\n", r.Title)
	fmt.Fprintf(&sb, "%12s %10s\n", r.Param, "MSE")
	for i, v := range r.Values {
		fmt.Fprintf(&sb, "%12g %10.3f\n", v, r.MSEs[i])
	}
	return sb.String()
}

// dynamicTraces simulates n dynamic cases and returns their sensor traces
// with per-case Eq. (3) anchors from a trained stable model.
func dynamicTraces(ctx context.Context, cfg Fig1bConfig, n int) ([]*substrate.Trace, []core.Curve, error) {
	evalCases, err := workload.GenerateCases(dynamicGen(), cfg.Seed+5, "abl", n)
	if err != nil {
		return nil, nil, err
	}
	return anchoredTraces(ctx, cfg.Seed, cfg.TrainCases, evalCases, cfg.Seed+200)
}

// anchoredTraces trains ψ_stable on trainCases cases from seed, runs each
// of cases ExpS on a one-host fleet whose sensor draws from runSeed plus
// the case's index, and returns the sensor traces with each case's Eq. (3)
// curve: φ0 profiled from its trace, ψ_stable predicted.
func anchoredTraces(ctx context.Context, seed int64, trainCases int, cases []workload.Case, runSeed int64) ([]*substrate.Trace, []core.Curve, error) {
	pred, err := trainStable(ctx, seed, trainCases)
	if err != nil {
		return nil, nil, err
	}
	traces := make([]*substrate.Trace, len(cases))
	curves := make([]core.Curve, len(cases))
	for i, c := range cases {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		run, err := runCase(c, runSeed+int64(i), dataset.ExpS)
		if err != nil {
			return nil, nil, err
		}
		phi0, _, err := core.ProfileTrace(run.SensorTemps, core.DefaultTBreakS)
		if err != nil {
			return nil, nil, err
		}
		stable, err := pred.PredictCase(c, dataset.ExpS)
		if err != nil {
			return nil, nil, err
		}
		curve, err := core.NewCurve(phi0, stable, core.DefaultTBreakS, core.DefaultCurveDelta)
		if err != nil {
			return nil, nil, err
		}
		traces[i] = run
		curves[i] = curve
	}
	return traces, curves, nil
}

// RunAblationLambda sweeps the calibration learning rate λ (Abl. A).
func RunAblationLambda(ctx context.Context, cfg Fig1bConfig, lambdas []float64, cases int) (*SweepResult, error) {
	if len(lambdas) == 0 {
		return nil, fmt.Errorf("experiments: empty lambda axis")
	}
	traces, curves, err := dynamicTraces(ctx, cfg, cases)
	if err != nil {
		return nil, err
	}
	res := &SweepResult{
		Title:  "Ablation A: calibration learning rate λ (paper uses 0.8)",
		Param:  "lambda",
		Values: lambdas,
	}
	for _, l := range lambdas {
		var mses []float64
		for i := range traces {
			dyn := core.DefaultDynamicConfig()
			dyn.Lambda = l
			rr, err := core.Replay(traces[i].SensorTemps, curves[i], dyn)
			if err != nil {
				return nil, err
			}
			mses = append(mses, rr.MSE)
		}
		m, err := mathx.Mean(mses)
		if err != nil {
			return nil, err
		}
		res.MSEs = append(res.MSEs, m)
	}
	return res, nil
}

// RunAblationCurveDelta sweeps the Eq. (3) curvature δ (Abl. B).
func RunAblationCurveDelta(ctx context.Context, cfg Fig1bConfig, deltas []float64, cases int) (*SweepResult, error) {
	if len(deltas) == 0 {
		return nil, fmt.Errorf("experiments: empty delta axis")
	}
	traces, curves, err := dynamicTraces(ctx, cfg, cases)
	if err != nil {
		return nil, err
	}
	res := &SweepResult{
		Title:  "Ablation B: pre-defined curve curvature δ (seconds)",
		Param:  "delta",
		Values: deltas,
	}
	for _, d := range deltas {
		var mses []float64
		for i := range traces {
			curve := curves[i]
			curve.DeltaS = d
			rr, err := core.Replay(traces[i].SensorTemps, curve, core.DefaultDynamicConfig())
			if err != nil {
				return nil, err
			}
			mses = append(mses, rr.MSE)
		}
		m, err := mathx.Mean(mses)
		if err != nil {
			return nil, err
		}
		res.MSEs = append(res.MSEs, m)
	}
	return res, nil
}

// BaselineRow is one predictor's score in the comparison ablation.
type BaselineRow struct {
	Name string
	MSE  float64
}

// BaselineResult compares the SVM pipeline against every baseline (Abl. C).
type BaselineResult struct {
	Rows []BaselineRow
}

// Render prints the comparison sorted best-first.
func (r *BaselineResult) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Ablation C: stable prediction, SVM vs. baselines\n")
	fmt.Fprintf(&sb, "%-16s %10s\n", "model", "MSE")
	rows := make([]BaselineRow, len(r.Rows))
	copy(rows, r.Rows)
	sort.Slice(rows, func(i, j int) bool { return rows[i].MSE < rows[j].MSE })
	for _, row := range rows {
		fmt.Fprintf(&sb, "%-16s %10.3f\n", row.Name, row.MSE)
	}
	return sb.String()
}

// RunAblationBaselines trains everything on the same split and compares test
// MSE (Abl. C). The SVM appears as "svm-rbf".
func RunAblationBaselines(ctx context.Context, cfg Fig1aConfig) (*BaselineResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	trainRecs, testRecs, err := split(ctx, cfg, dataset.DefaultBuildOptions(cfg.Seed))
	if err != nil {
		return nil, err
	}

	res := &BaselineResult{}
	svmPred, err := core.TrainStable(ctx, trainRecs, core.FastStableConfig())
	if err != nil {
		return nil, err
	}
	svmMSE, err := testMSE(svmPred, testRecs)
	if err != nil {
		return nil, err
	}
	res.Rows = append(res.Rows, BaselineRow{Name: "svm-rbf", MSE: svmMSE})

	for _, b := range baseline.All() {
		mse, err := baseline.Evaluate(b, trainRecs, testRecs)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, BaselineRow{Name: b.Name(), MSE: mse})
	}
	return res, nil
}

// split builds Fig. 1(a)'s train and test records with build.
func split(ctx context.Context, cfg Fig1aConfig, build dataset.BuildOptions) (train, test []dataset.Record, err error) {
	gen := workload.DefaultGenOptions()
	if train, err = records(ctx, gen, cfg.Seed, "train", cfg.TrainCases, build); err != nil {
		return nil, nil, err
	}
	if test, err = records(ctx, gen, cfg.Seed+1, "test", cfg.TestCases, build); err != nil {
		return nil, nil, err
	}
	return train, test, nil
}

// RunAblationSensorNoise sweeps the sensor noise σ and measures stable-
// prediction MSE (Abl. E). Finding: the sweep is nearly flat, because
// Eq. (1)'s ψ_stable averages hundreds of post-break samples and read noise
// divides by √n — so the Fig. 1(a) error floor is model approximation over
// the case distribution, not the sensor path. (Dynamic prediction, whose
// targets are single samples, does pay σ directly; see Fig. 1(c)'s floor.)
func RunAblationSensorNoise(ctx context.Context, cfg Fig1aConfig, sigmas []float64) (*SweepResult, error) {
	if len(sigmas) == 0 {
		return nil, fmt.Errorf("experiments: empty sigma axis")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	res := &SweepResult{
		Title:  "Ablation E: stable prediction MSE by sensor noise σ (°C)",
		Param:  "sigma",
		Values: sigmas,
	}
	for _, sigma := range sigmas {
		if sigma < 0 {
			return nil, fmt.Errorf("experiments: negative sigma %v", sigma)
		}
		build := dataset.DefaultBuildOptions(cfg.Seed)
		build.Sensor = thermal.SensorParams{NoiseStdC: sigma, QuantizationC: 0.25}
		trainRecs, testRecs, err := split(ctx, cfg, build)
		if err != nil {
			return nil, err
		}
		pred, err := core.TrainStable(ctx, trainRecs, core.FastStableConfig())
		if err != nil {
			return nil, err
		}
		mse, err := testMSE(pred, testRecs)
		if err != nil {
			return nil, err
		}
		res.MSEs = append(res.MSEs, mse)
	}
	return res, nil
}

// RunAblationFans measures stable-prediction error grouped by fan count
// (Abl. D): the model trains on mixed fan counts and is scored per group.
func RunAblationFans(ctx context.Context, cfg Fig1aConfig, fanCounts []int, casesPerFan int) (*SweepResult, error) {
	if len(fanCounts) == 0 || casesPerFan < 1 {
		return nil, fmt.Errorf("experiments: invalid fan ablation axes")
	}
	gen := workload.DefaultGenOptions()
	gen.FanChoices = fanCounts
	build := dataset.DefaultBuildOptions(cfg.Seed)
	trainRecs, err := records(ctx, gen, cfg.Seed, "train", cfg.TrainCases, build)
	if err != nil {
		return nil, err
	}
	pred, err := core.TrainStable(ctx, trainRecs, core.FastStableConfig())
	if err != nil {
		return nil, err
	}

	res := &SweepResult{
		Title:  "Ablation D: stable prediction MSE by fan count",
		Param:  "fans",
		Values: make([]float64, 0, len(fanCounts)),
	}
	for _, fans := range fanCounts {
		fanGen := gen
		fanGen.FanChoices = []int{fans}
		recs, err := records(ctx, fanGen, cfg.Seed+int64(10+fans), fmt.Sprintf("fan%d", fans), casesPerFan, build)
		if err != nil {
			return nil, err
		}
		mse, err := testMSE(pred, recs)
		if err != nil {
			return nil, err
		}
		res.Values = append(res.Values, float64(fans))
		res.MSEs = append(res.MSEs, mse)
	}
	return res, nil
}
