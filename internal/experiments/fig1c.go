package experiments

import (
	"context"
	"fmt"
	"strings"

	"vmtherm/internal/core"
	"vmtherm/internal/dataset"
	"vmtherm/internal/mathx"
	"vmtherm/internal/substrate"
	"vmtherm/internal/workload"
)

// Fig1cConfig parameterizes the Δ_gap × Δ_update accuracy sweep.
type Fig1cConfig struct {
	// Seed drives everything.
	Seed int64
	// GapsS and UpdatesS enumerate the sweep axes (seconds).
	GapsS, UpdatesS []float64
	// Cases is how many randomized dynamic cases each cell averages over.
	Cases int
	// FanCount pins the server cooling ("with 4 server fans" in the paper).
	FanCount int
	// TrainCases sizes the ψ_stable training set.
	TrainCases int
	// Gen bounds case generation.
	Gen workload.GenOptions
	// Build configures simulation runs.
	Build dataset.BuildOptions
	// Stable configures SVM training.
	Stable core.StableConfig
	// Lambda is the calibration learning rate.
	Lambda float64
	// TBreakS and CurveDeltaS shape the Eq. (3) curve.
	TBreakS, CurveDeltaS float64
}

// DefaultFig1cConfig sweeps a superset of the paper's axes with 4 fans.
func DefaultFig1cConfig(seed int64) Fig1cConfig {
	gen := workload.DefaultGenOptions()
	gen.Dynamic = true
	return Fig1cConfig{
		Seed:        seed,
		GapsS:       []float64{15, 30, 60, 120, 240},
		UpdatesS:    []float64{5, 15, 30, 60},
		Cases:       12,
		FanCount:    4,
		TrainCases:  80,
		Gen:         gen,
		Build:       dataset.DefaultBuildOptions(seed),
		Stable:      core.FastStableConfig(),
		Lambda:      core.DefaultLambda,
		TBreakS:     core.DefaultTBreakS,
		CurveDeltaS: core.DefaultCurveDelta,
	}
}

// Validate checks the sweep configuration.
func (c Fig1cConfig) Validate() error {
	if len(c.GapsS) == 0 || len(c.UpdatesS) == 0 {
		return fmt.Errorf("experiments: empty sweep axis")
	}
	if c.Cases < 1 {
		return fmt.Errorf("experiments: cases %d < 1", c.Cases)
	}
	if c.TrainCases < 10 {
		return fmt.Errorf("experiments: %d training cases too few", c.TrainCases)
	}
	return nil
}

// Fig1cResult is the sweep outcome: MSE[gap][update].
type Fig1cResult struct {
	GapsS, UpdatesS []float64
	// MSE is indexed [gap][update].
	MSE [][]float64
}

// RunFig1c trains the stable model once, simulates Cases dynamic traces with
// FanCount fans, and replays each (Δ_gap, Δ_update) combination over all
// traces.
func RunFig1c(ctx context.Context, cfg Fig1cConfig) (*Fig1cResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
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

	// Simulate the dynamic evaluation traces once; every cell replays them.
	evalGen := cfg.Gen
	evalGen.Dynamic = true
	evalGen.FanChoices = []int{cfg.FanCount}
	evalCases, err := workload.GenerateCases(evalGen, cfg.Seed+3, "sweep", cfg.Cases)
	if err != nil {
		return nil, err
	}
	curves := make([]core.Curve, len(evalCases))
	traces := make([]*substrate.Trace, len(evalCases))
	for i, c := range evalCases {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		run, err := runCase(c, cfg.Seed+100+int64(i), cfg.Build.DurationS)
		if err != nil {
			return nil, err
		}
		phi0, _, err := core.ProfileTrace(run.SensorTemps, cfg.TBreakS)
		if err != nil {
			return nil, err
		}
		stable, err := pred.PredictCase(c, cfg.Build.DurationS)
		if err != nil {
			return nil, err
		}
		curve, err := core.NewCurve(phi0, stable, cfg.TBreakS, cfg.CurveDeltaS)
		if err != nil {
			return nil, err
		}
		curves[i] = curve
		traces[i] = run
	}

	res := &Fig1cResult{GapsS: cfg.GapsS, UpdatesS: cfg.UpdatesS}
	res.MSE = make([][]float64, len(cfg.GapsS))
	for gi, gap := range cfg.GapsS {
		res.MSE[gi] = make([]float64, len(cfg.UpdatesS))
		for ui, upd := range cfg.UpdatesS {
			var cellMSEs []float64
			for i := range evalCases {
				rr, err := core.Replay(traces[i].SensorTemps, curves[i], core.DynamicConfig{
					Lambda:       cfg.Lambda,
					UpdateEveryS: upd,
					GapS:         gap,
				})
				if err != nil {
					return nil, fmt.Errorf("experiments: gap %v update %v case %s: %w",
						gap, upd, evalCases[i].Name, err)
				}
				cellMSEs = append(cellMSEs, rr.MSE)
			}
			m, err := mathx.Mean(cellMSEs)
			if err != nil {
				return nil, err
			}
			res.MSE[gi][ui] = m
		}
	}
	return res, nil
}

// Render prints the MSE matrix with gaps as rows and updates as columns.
func (r *Fig1cResult) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Fig 1(c): dynamic prediction MSE, Δ_gap × Δ_update (4 fans)\n")
	fmt.Fprintf(&sb, "%12s", "gap\\update")
	for _, u := range r.UpdatesS {
		fmt.Fprintf(&sb, "%8.0fs", u)
	}
	sb.WriteByte('\n')
	for gi, g := range r.GapsS {
		fmt.Fprintf(&sb, "%11.0fs", g)
		for ui := range r.UpdatesS {
			fmt.Fprintf(&sb, "%9.3f", r.MSE[gi][ui])
		}
		sb.WriteByte('\n')
	}
	fmt.Fprintf(&sb, "(paper band: 0.70–1.50 across the sweep)\n")
	return sb.String()
}
