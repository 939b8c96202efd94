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

// The dynamic experiments' server has studyFans fans ("with 4 server fans"
// in the paper), and the case studies put studyVMs VMs on it (the paper
// shows one "particular experiment case"). Their curves take Eq. (3)'s
// shape from core (DefaultTBreakS, DefaultCurveDelta) and replay with the
// paper's Δ_gap = 60 s, Δ_update = 15 s, λ = 0.8 (core.DefaultDynamicConfig).
const (
	studyFans = 4
	studyVMs  = 8
)

// Fig1bConfig parameterizes the dynamic-prediction case study.
type Fig1bConfig struct {
	// Seed drives everything.
	Seed int64
	// TrainCases sizes the training set for the ψ_stable anchor.
	TrainCases int
}

// DefaultFig1bConfig mirrors the paper's §II running example.
func DefaultFig1bConfig(seed int64) Fig1bConfig {
	return Fig1bConfig{Seed: seed, TrainCases: 80}
}

// dynamicGen draws the dynamic experiments' cases: studyFans fans,
// time-varying loads.
func dynamicGen() workload.GenOptions {
	gen := workload.DefaultGenOptions()
	gen.Dynamic = true
	gen.FanChoices = []int{studyFans}
	return gen
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
	if cfg.TrainCases < 10 {
		return nil, fmt.Errorf("experiments: %d training cases too few", cfg.TrainCases)
	}
	// Train the ψ_stable model on constant-load experiments (the paper's
	// training protocol), then study a dynamic case.
	pred, err := trainStable(ctx, cfg.Seed, cfg.TrainCases)
	if err != nil {
		return nil, err
	}

	// The case study: a dynamic workload on a studyFans-fan server.
	caseGen := dynamicGen()
	caseGen.VMCountMin, caseGen.VMCountMax = studyVMs, studyVMs
	study, err := workload.GenerateCase(caseGen, cfg.Seed+2, "casestudy")
	if err != nil {
		return nil, err
	}
	run, err := runCase(study, cfg.Seed+2, dataset.ExpS)
	if err != nil {
		return nil, err
	}

	phi0, actualStable, err := core.ProfileTrace(run.SensorTemps, core.DefaultTBreakS)
	if err != nil {
		return nil, err
	}
	predictedStable, err := pred.PredictCase(study, dataset.ExpS)
	if err != nil {
		return nil, err
	}
	curve, err := core.NewCurve(phi0, predictedStable, core.DefaultTBreakS, core.DefaultCurveDelta)
	if err != nil {
		return nil, err
	}

	withCal, withoutCal, err := replayBoth(run, curve)
	if err != nil {
		return nil, err
	}
	gap := core.DefaultDynamicConfig().GapS
	lvMSE, _, err := baseline.ReplayDynamic(run.SensorTemps, baseline.LastValue, gap)
	if err != nil {
		return nil, err
	}
	leMSE, _, err := baseline.ReplayDynamic(run.SensorTemps, baseline.LinearExtrapolation, gap)
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

// replayBoth replays run's sensor trace against curve with the paper's
// dynamic setup, calibrated (λ = 0.8) and not (λ = 0).
func replayBoth(run *substrate.Trace, curve core.Curve) (with, without *core.ReplayResult, err error) {
	dyn := core.DefaultDynamicConfig()
	if with, err = core.Replay(run.SensorTemps, curve, dyn); err != nil {
		return nil, nil, err
	}
	dyn.Lambda = 0
	if without, err = core.Replay(run.SensorTemps, curve, dyn); err != nil {
		return nil, nil, err
	}
	return with, without, nil
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
