// Quickstart: train a stable-temperature model on simulated experiments and
// predict ψ_stable for a held-out case — the paper's Eq. (1)–(2) pipeline in
// ~50 lines.
//
// Run with: go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"vmtherm/internal/core"
	"vmtherm/internal/dataset"
	"vmtherm/internal/workload"
)

func main() {
	log.SetFlags(0)
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	ctx := context.Background()

	// 1. Generate randomized experiment cases: 2–12 VMs per host, mixed
	//    task classes, 2–6 fans, 18–28 °C ambient.
	cases, err := workload.GenerateCases(workload.DefaultGenOptions(), 42, "quick", 60)
	if err != nil {
		return err
	}

	// 2. Run each case on a one-host simulated fleet for 1800 s and extract
	//    one Eq. (2) record per case (input features → measured ψ_stable).
	fmt.Println("simulating 60 experiments (1800 s each, in virtual time)...")
	records, err := dataset.Build(ctx, cases, dataset.DefaultBuildOptions(42))
	if err != nil {
		return err
	}

	// 3. Hold out a few cases, train the SVM pipeline with grid search.
	train, test, err := dataset.Split(records, 0.1, 42)
	if err != nil {
		return err
	}
	fmt.Printf("training on %d records (grid search + cross-validation)...\n", len(train))
	model, err := core.TrainStable(ctx, train, core.FastStableConfig())
	if err != nil {
		return err
	}
	fmt.Printf("best hyper-parameters: C=%g gamma=%g eps=%g (cv MSE %.3f)\n\n",
		model.Best().C, model.Best().Gamma, model.Best().Epsilon, model.CVMSE())

	// 4. Predict stable CPU temperature for the held-out cases.
	fmt.Printf("%-12s %10s %10s %8s\n", "case", "actual°C", "pred°C", "err")
	var sumSq float64
	for _, rec := range test {
		pred, err := model.PredictFeatures(rec.Features)
		if err != nil {
			return err
		}
		diff := pred - rec.StableTemp
		sumSq += diff * diff
		fmt.Printf("%-12s %10.2f %10.2f %+8.2f\n", rec.CaseName, rec.StableTemp, pred, diff)
	}
	fmt.Printf("\nheld-out MSE: %.3f (paper reports ≤ 1.10)\n", sumSq/float64(len(test)))
	return nil
}
