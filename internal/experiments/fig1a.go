// Package experiments regenerates the paper's evaluation: Fig. 1(a) stable
// prediction over 20 randomized cases, Fig. 1(b) the calibrated-vs-
// uncalibrated dynamic case study, Fig. 1(c) the Δ_gap × Δ_update accuracy
// sweep — plus ablations of λ, the curve's δ, the baselines, sensor noise
// and the fan count. Each experiment returns a typed result with a Render
// method that prints the same rows/series the paper reports.
package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"vmtherm/internal/core"
	"vmtherm/internal/dataset"
	"vmtherm/internal/mathx"
	"vmtherm/internal/mlgrid"
	"vmtherm/internal/workload"
)

// Fig1aConfig parameterizes the stable-prediction experiment. Its cases
// are workload.DefaultGenOptions' constant-load ones, run the paper's way
// (dataset.DefaultBuildOptions), and its SVM is core.FastStableConfig's.
type Fig1aConfig struct {
	// TrainCases and TestCases size the experiment; the paper evaluates on
	// 20 randomized test cases with 2–12 VMs.
	TrainCases, TestCases int
	// Seed drives case generation and simulation.
	Seed int64
}

// DefaultFig1aConfig reproduces the paper's shape: 20 test cases, 2–12 VMs.
func DefaultFig1aConfig(seed int64) Fig1aConfig {
	return Fig1aConfig{TrainCases: 160, TestCases: 20, Seed: seed}
}

// Validate checks the configuration.
func (c Fig1aConfig) Validate() error {
	if c.TrainCases < 10 {
		return fmt.Errorf("experiments: %d training cases too few", c.TrainCases)
	}
	if c.TestCases < 1 {
		return fmt.Errorf("experiments: %d test cases too few", c.TestCases)
	}
	return nil
}

// Fig1aCase is one test case's outcome — one bar pair in the paper's figure.
type Fig1aCase struct {
	Name      string
	VMs       int
	Actual    float64 // measured ψ_stable (Eq. 1 on the test trace)
	Predicted float64 // SVM prediction
	SqErr     float64
}

// Fig1aResult is the full experiment outcome.
type Fig1aResult struct {
	Cases []Fig1aCase
	// MSE is the average mean squared error across test cases; the paper
	// reports ≤ 1.10.
	MSE float64
	// Best is the winning grid point; CVMSE its cross-validated score.
	Best  mlgrid.Point
	CVMSE float64
}

// RunFig1a trains the paper pipeline on TrainCases simulated experiments and
// evaluates stable prediction on TestCases held-out randomized cases.
func RunFig1a(ctx context.Context, cfg Fig1aConfig) (*Fig1aResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	build := dataset.DefaultBuildOptions(cfg.Seed)
	trainRecs, err := records(ctx, workload.DefaultGenOptions(), cfg.Seed, "train", cfg.TrainCases, build)
	if err != nil {
		return nil, err
	}
	testCases, err := workload.GenerateCases(workload.DefaultGenOptions(), cfg.Seed+1, "test", cfg.TestCases)
	if err != nil {
		return nil, err
	}
	testRecs, err := dataset.Build(ctx, testCases, build)
	if err != nil {
		return nil, err
	}
	pred, err := core.TrainStable(ctx, trainRecs, core.FastStableConfig())
	if err != nil {
		return nil, err
	}

	res := &Fig1aResult{Best: pred.Best(), CVMSE: pred.CVMSE()}
	var ps, as []float64
	for i, rec := range testRecs {
		p, err := pred.PredictFeatures(rec.Features)
		if err != nil {
			return nil, err
		}
		d := p - rec.StableTemp
		res.Cases = append(res.Cases, Fig1aCase{
			Name:      rec.CaseName,
			VMs:       len(testCases[i].VMs),
			Actual:    rec.StableTemp,
			Predicted: p,
			SqErr:     d * d,
		})
		ps = append(ps, p)
		as = append(as, rec.StableTemp)
	}
	if res.MSE, err = mathx.MSE(ps, as); err != nil {
		return nil, err
	}
	return res, nil
}

// records generates n cases labelled label from gen and seed and runs each
// on the simulated rig with build: one Eq. (2) record per case.
func records(ctx context.Context, gen workload.GenOptions, seed int64, label string, n int, build dataset.BuildOptions) ([]dataset.Record, error) {
	cases, err := workload.GenerateCases(gen, seed, label, n)
	if err != nil {
		return nil, err
	}
	return dataset.Build(ctx, cases, build)
}

// trainStable trains ψ_stable the paper's way on n constant-load cases
// drawn from seed: the anchor every dynamic experiment predicts with.
func trainStable(ctx context.Context, seed int64, n int) (*core.StablePredictor, error) {
	recs, err := records(ctx, workload.DefaultGenOptions(), seed, "train", n, dataset.DefaultBuildOptions(seed))
	if err != nil {
		return nil, err
	}
	return core.TrainStable(ctx, recs, core.FastStableConfig())
}

// testMSE is pred's mean squared error over recs' ψ_stable labels.
func testMSE(pred *core.StablePredictor, recs []dataset.Record) (float64, error) {
	var ps, as []float64
	for _, rec := range recs {
		p, err := pred.PredictFeatures(rec.Features)
		if err != nil {
			return 0, err
		}
		ps = append(ps, p)
		as = append(as, rec.StableTemp)
	}
	return mathx.MSE(ps, as)
}

// Render prints the per-case table and summary, mirroring Fig. 1(a).
func (r *Fig1aResult) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Fig 1(a): stable CPU temperature prediction, %d randomized cases\n", len(r.Cases))
	fmt.Fprintf(&sb, "%-12s %4s %10s %10s %8s\n", "case", "VMs", "actual°C", "pred°C", "sqErr")
	cases := make([]Fig1aCase, len(r.Cases))
	copy(cases, r.Cases)
	sort.Slice(cases, func(i, j int) bool { return cases[i].Name < cases[j].Name })
	for _, c := range cases {
		fmt.Fprintf(&sb, "%-12s %4d %10.2f %10.2f %8.3f\n", c.Name, c.VMs, c.Actual, c.Predicted, c.SqErr)
	}
	fmt.Fprintf(&sb, "grid: C=%g gamma=%g eps=%g (cv MSE %.3f)\n", r.Best.C, r.Best.Gamma, r.Best.Epsilon, r.CVMSE)
	fmt.Fprintf(&sb, "average MSE = %.3f  (paper reports within 1.10)\n", r.MSE)
	return sb.String()
}
