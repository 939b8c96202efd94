package experiments

import (
	"context"
	"fmt"
	"math"
	"strings"

	"vmtherm/internal/core"
	"vmtherm/internal/dataset"
	"vmtherm/internal/substrate"
	"vmtherm/internal/vmm"
	"vmtherm/internal/workload"
)

// MigrationStudyResult captures dynamic prediction through a live VM
// migration — the scenario the paper's introduction singles out as the one
// traditional models cannot handle.
type MigrationStudyResult struct {
	// CaseName identifies the observed server's workload.
	CaseName string
	// MigrationAtS is when the inbound migration was initiated.
	MigrationAtS float64
	// PredictedStable is the SVM ψ_stable for the POST-migration deployment
	// (the VMM knows what is scheduled before the thermals respond).
	PredictedStable float64
	// ActualStable is the measured post-migration settled temperature.
	ActualStable float64
	// WithMSE / WithoutMSE compare calibrated vs. uncalibrated replay over
	// the full trace, including the migration transient.
	WithMSE, WithoutMSE float64
}

// RunMigrationStudy trains the stable model, runs an experiment where a hot
// VM live-migrates onto the observed server mid-run, and scores dynamic
// prediction through the transition.
func RunMigrationStudy(ctx context.Context, cfg Fig1bConfig, migrateAtS float64) (*MigrationStudyResult, error) {
	if migrateAtS <= 0 || migrateAtS >= dataset.ExpS {
		return nil, fmt.Errorf("experiments: migration time %v outside the run", migrateAtS)
	}
	pred, err := trainStable(ctx, cfg.Seed, cfg.TrainCases)
	if err != nil {
		return nil, err
	}

	// Observed server: constant-load VMs so the migration is the dynamics.
	caseGen := dynamicGen()
	caseGen.Dynamic = false
	caseGen.VMCountMin, caseGen.VMCountMax = studyVMs, studyVMs
	study, err := workload.GenerateCase(caseGen, cfg.Seed+7, "migstudy")
	if err != nil {
		return nil, err
	}
	newcomer := workload.VMSpec{
		ID:     "migstudy-incoming",
		Config: vmm.VMConfig{VCPUs: 4, MemoryGB: 8},
		Tasks: []workload.TaskSpec{
			{
				Task:    vmm.Task{ID: "mig-t0", Class: vmm.CPUBound, CPUFraction: 0.95, MemGB: 2},
				Profile: workload.Constant{Level: 0.95},
			},
			{
				Task:    vmm.Task{ID: "mig-t1", Class: vmm.CPUBound, CPUFraction: 0.85, MemGB: 1},
				Profile: workload.Constant{Level: 0.85},
			},
		},
	}
	// The newcomer's pre-copy runs on a source outside the observed server;
	// its load lands here at the first tick at or after the copy completes.
	plan, err := vmm.PlanMigration(newcomer.Config.MemoryGB, vmm.DefaultMigrationSpec())
	if err != nil {
		return nil, err
	}
	sc := substrate.DefaultConfig()
	sc.Seed = cfg.Seed + 7
	landS := math.Ceil((migrateAtS+plan.TotalSeconds())/sc.TickS) * sc.TickS
	// Advance counts its samples from its own start, so the run pauses at
	// the last reading before the landing and takes the first one after it
	// by hand: the trace keeps its SampleS grid.
	nextS := math.Ceil(landS/sc.SampleS) * sc.SampleS
	lastS := nextS - sc.SampleS
	if nextS >= dataset.ExpS {
		return nil, fmt.Errorf("experiments: migration at %v lands at %v, at the end of the run", migrateAtS, landS)
	}
	host, err := substrate.OneHost(study, sc)
	if err != nil {
		return nil, err
	}
	run := substrate.NewTrace(host, int(dataset.ExpS/sc.SampleS)+1)
	host.Sample(run.Emit)
	if lastS > 0 {
		if err := host.Advance(lastS, run.Emit); err != nil {
			return nil, err
		}
	}
	if err := host.Advance(landS-lastS, run.Emit); err != nil {
		return nil, err
	}
	if err := host.Place(0, newcomer); err != nil {
		return nil, err
	}
	if nextS > landS {
		if err := host.Advance(nextS-landS, run.Emit); err != nil {
			return nil, err
		}
		host.Sample(run.Emit)
	}
	if err := host.Advance(dataset.ExpS-nextS, run.Emit); err != nil {
		return nil, err
	}

	phi0, _, err := core.ProfileTrace(run.SensorTemps, core.DefaultTBreakS)
	if err != nil {
		return nil, err
	}
	postCase := study
	postCase.VMs = append(append([]workload.VMSpec{}, study.VMs...), newcomer)
	predictedStable, err := pred.PredictCase(postCase, dataset.ExpS)
	if err != nil {
		return nil, err
	}
	// Post-migration regime: after the thermal transient of the arrival.
	actualStable, err := run.SensorTemps.MeanAfter(migrateAtS + core.DefaultTBreakS/2)
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

	return &MigrationStudyResult{
		CaseName:        study.Name,
		MigrationAtS:    migrateAtS,
		PredictedStable: predictedStable,
		ActualStable:    actualStable,
		WithMSE:         withCal.MSE,
		WithoutMSE:      withoutCal.MSE,
	}, nil
}

// Render prints the study summary.
func (r *MigrationStudyResult) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Migration study: live migration into %s at t=%.0f s\n", r.CaseName, r.MigrationAtS)
	fmt.Fprintf(&sb, "post-migration stable: predicted %.2f °C, measured %.2f °C\n",
		r.PredictedStable, r.ActualStable)
	fmt.Fprintf(&sb, "dynamic prediction through the migration:\n")
	fmt.Fprintf(&sb, "  with calibration:    MSE %.3f\n", r.WithMSE)
	fmt.Fprintf(&sb, "  without calibration: MSE %.3f\n", r.WithoutMSE)
	return sb.String()
}
