package experiments

import (
	"context"
	"fmt"
	"strings"

	"vmtherm/internal/core"
	"vmtherm/internal/mathx"
	"vmtherm/internal/workload"
)

// Fig1cConfig parameterizes the Δ_gap × Δ_update accuracy sweep.
type Fig1cConfig struct {
	// Seed drives everything.
	Seed int64
	// GapsS and UpdatesS enumerate the sweep axes (seconds).
	GapsS, UpdatesS []float64
	// Cases is how many randomized dynamic cases (studyFans fans) each
	// cell averages over.
	Cases int
	// TrainCases sizes the ψ_stable training set.
	TrainCases int
}

// DefaultFig1cConfig sweeps a superset of the paper's axes with 4 fans.
func DefaultFig1cConfig(seed int64) Fig1cConfig {
	return Fig1cConfig{
		Seed:       seed,
		GapsS:      []float64{15, 30, 60, 120, 240},
		UpdatesS:   []float64{5, 15, 30, 60},
		Cases:      12,
		TrainCases: 80,
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
// studyFans fans, and replays each (Δ_gap, Δ_update) combination over all
// traces.
func RunFig1c(ctx context.Context, cfg Fig1cConfig) (*Fig1cResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	// Simulate the dynamic evaluation traces once; every cell replays them.
	evalCases, err := workload.GenerateCases(dynamicGen(), cfg.Seed+3, "sweep", cfg.Cases)
	if err != nil {
		return nil, err
	}
	traces, curves, err := anchoredTraces(ctx, cfg.Seed, cfg.TrainCases, evalCases, cfg.Seed+100)
	if err != nil {
		return nil, err
	}

	res := &Fig1cResult{GapsS: cfg.GapsS, UpdatesS: cfg.UpdatesS}
	res.MSE = make([][]float64, len(cfg.GapsS))
	for gi, gap := range cfg.GapsS {
		res.MSE[gi] = make([]float64, len(cfg.UpdatesS))
		for ui, upd := range cfg.UpdatesS {
			var cellMSEs []float64
			for i := range evalCases {
				rr, err := core.Replay(traces[i].SensorTemps, curves[i], core.DynamicConfig{
					Lambda:       core.DefaultLambda,
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
