package experiments

import (
	"context"
	"fmt"
	"strings"

	"vmtherm/internal/baseline"
	"vmtherm/internal/core"
	"vmtherm/internal/dataset"
	"vmtherm/internal/substrate"
	"vmtherm/internal/workload"
)

// Fig1bConfig parameterizes the dynamic-prediction case study.
type Fig1bConfig struct {
	// Seed drives everything.
	Seed int64
	// CaseVMs is the VM count of the case study (the paper shows one
	// "particular experiment case").
	CaseVMs int
	// FanCount for the case-study server.
	FanCount int
	// TrainCases sizes the training set for the ψ_stable anchor.
	TrainCases int
	// Gen bounds case generation.
	Gen workload.GenOptions
	// Build configures simulation runs.
	Build dataset.BuildOptions
	// Stable configures SVM training.
	Stable core.StableConfig
	// Dynamic is the paper's Δ_gap=60, Δ_update=15, λ=0.8 setup.
	Dynamic core.DynamicConfig
	// TBreakS and CurveDeltaS shape the Eq. (3) curve.
	TBreakS, CurveDeltaS float64
}

// DefaultFig1bConfig mirrors the paper's §II running example.
func DefaultFig1bConfig(seed int64) Fig1bConfig {
	gen := workload.DefaultGenOptions()
	gen.Dynamic = true
	return Fig1bConfig{
		Seed:        seed,
		CaseVMs:     8,
		FanCount:    4,
		TrainCases:  80,
		Gen:         gen,
		Build:       dataset.DefaultBuildOptions(seed),
		Stable:      core.FastStableConfig(),
		Dynamic:     core.DefaultDynamicConfig(),
		TBreakS:     core.DefaultTBreakS,
		CurveDeltaS: core.DefaultCurveDelta,
	}
}

// Fig1bSeries is one aligned sample of the case-study plot.
type Fig1bSeries struct {
	T           float64
	Empirical   float64
	Calibrated  float64
	Uncalibrate float64
}

// Fig1bResult is the case-study outcome.
type Fig1bResult struct {
	// CaseName identifies the case study.
	CaseName string
	// PredictedStable is the SVM's ψ_stable anchor; ActualStable the
	// measured Eq. (1) value.
	PredictedStable, ActualStable float64
	// WithMSE / WithoutMSE reproduce Fig. 1(b)'s comparison.
	WithMSE, WithoutMSE float64
	// LastValueMSE / ExtrapolationMSE are naive baselines for context.
	LastValueMSE, ExtrapolationMSE float64
	// Series holds plot-ready rows (prediction targets vs. empirical).
	Series []Fig1bSeries
}

// RunFig1b trains the stable model, runs one dynamic case study, and replays
// dynamic prediction with and without calibration against the empirical
// trace.
func RunFig1b(ctx context.Context, cfg Fig1bConfig) (*Fig1bResult, error) {
	if cfg.CaseVMs < 1 || cfg.TrainCases < 10 {
		return nil, fmt.Errorf("experiments: fig1b config sizes invalid")
	}
	// Train the ψ_stable model on constant-load experiments (the paper's
	// training protocol), then study a dynamic case.
	trainGen := cfg.Gen
	trainGen.Dynamic = false
	trainCases, err := workload.GenerateCases(trainGen, cfg.Seed, "train", cfg.TrainCases)
	if err != nil {
		return nil, err
	}
	trainRecs, err := dataset.Build(ctx, trainCases, cfg.Build)
	if err != nil {
		return nil, err
	}
	pred, err := core.TrainStable(ctx, trainRecs, cfg.Stable)
	if err != nil {
		return nil, err
	}

	// The case study: a dynamic workload on a FanCount-fan server.
	caseGen := cfg.Gen
	caseGen.Dynamic = true
	caseGen.VMCountMin, caseGen.VMCountMax = cfg.CaseVMs, cfg.CaseVMs
	caseGen.FanChoices = []int{cfg.FanCount}
	study, err := workload.GenerateCase(caseGen, cfg.Seed+2, "casestudy")
	if err != nil {
		return nil, err
	}
	run, err := runCase(study, cfg.Seed+2, cfg.Build.DurationS)
	if err != nil {
		return nil, err
	}

	phi0, actualStable, err := core.ProfileTrace(run.SensorTemps, cfg.TBreakS)
	if err != nil {
		return nil, err
	}
	predictedStable, err := pred.PredictCase(study, cfg.Build.DurationS)
	if err != nil {
		return nil, err
	}
	curve, err := core.NewCurve(phi0, predictedStable, cfg.TBreakS, cfg.CurveDeltaS)
	if err != nil {
		return nil, err
	}

	withCal, err := core.Replay(run.SensorTemps, curve, cfg.Dynamic)
	if err != nil {
		return nil, err
	}
	noCal := cfg.Dynamic
	noCal.Lambda = 0
	withoutCal, err := core.Replay(run.SensorTemps, curve, noCal)
	if err != nil {
		return nil, err
	}
	lvMSE, _, err := baseline.ReplayDynamic(run.SensorTemps, baseline.LastValue, cfg.Dynamic.GapS)
	if err != nil {
		return nil, err
	}
	leMSE, _, err := baseline.ReplayDynamic(run.SensorTemps, baseline.LinearExtrapolation, cfg.Dynamic.GapS)
	if err != nil {
		return nil, err
	}

	res := &Fig1bResult{
		CaseName:         study.Name,
		PredictedStable:  predictedStable,
		ActualStable:     actualStable,
		WithMSE:          withCal.MSE,
		WithoutMSE:       withoutCal.MSE,
		LastValueMSE:     lvMSE,
		ExtrapolationMSE: leMSE,
	}
	// Align the two replays (identical targets by construction).
	for i, p := range withCal.Points {
		res.Series = append(res.Series, Fig1bSeries{
			T:           p.Target,
			Empirical:   p.Actual,
			Calibrated:  p.Predicted,
			Uncalibrate: withoutCal.Points[i].Predicted,
		})
	}
	return res, nil
}

// runCase simulates c for durS seconds on a one-host fleet whose sensor
// draws from seed.
func runCase(c workload.Case, seed int64, durS float64) (*substrate.Trace, error) {
	cfg := substrate.DefaultConfig()
	cfg.Seed = seed
	return substrate.RunCase(c, cfg, durS)
}

// Render prints the case-study summary and a downsampled series table.
func (r *Fig1bResult) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Fig 1(b): dynamic CPU temperature prediction case study (%s)\n", r.CaseName)
	fmt.Fprintf(&sb, "psi_stable: predicted %.2f°C, measured %.2f°C\n", r.PredictedStable, r.ActualStable)
	fmt.Fprintf(&sb, "%-28s %10s\n", "method", "MSE")
	fmt.Fprintf(&sb, "%-28s %10.3f\n", "with calibration (λ=0.8)", r.WithMSE)
	fmt.Fprintf(&sb, "%-28s %10.3f\n", "without calibration (λ=0)", r.WithoutMSE)
	fmt.Fprintf(&sb, "%-28s %10.3f\n", "last-value baseline", r.LastValueMSE)
	fmt.Fprintf(&sb, "%-28s %10.3f\n", "linear-extrapolation", r.ExtrapolationMSE)
	fmt.Fprintf(&sb, "\n%8s %10s %12s %12s\n", "t(s)", "empirical", "calibrated", "uncalibrated")
	step := len(r.Series) / 20
	if step < 1 {
		step = 1
	}
	for i := 0; i < len(r.Series); i += step {
		s := r.Series[i]
		fmt.Fprintf(&sb, "%8.0f %10.2f %12.2f %12.2f\n", s.T, s.Empirical, s.Calibrated, s.Uncalibrate)
	}
	return sb.String()
}
