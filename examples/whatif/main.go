// Whatif: capacity planning with the trained model — predict stable CPU
// temperature for a fixed deployment under hypothetical fan failures and
// CRAC setpoint changes, then validate two cells against full simulation.
// This is the "substantial value to decision making" use the paper claims
// for proactive prediction.
//
// Run with: go run ./examples/whatif
package main

import (
	"context"
	"fmt"
	"log"
	"math"

	"vmtherm/internal/core"
	"vmtherm/internal/dataset"
	"vmtherm/internal/substrate"
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
	const seed = 23

	// Train on a corpus that covers the what-if ranges.
	gen := workload.DefaultGenOptions()
	gen.FanChoices = []int{1, 2, 3, 4, 5, 6}
	gen.AmbientMinC, gen.AmbientMaxC = 16, 32
	trainCases, err := workload.GenerateCases(gen, seed, "train", 90)
	if err != nil {
		return err
	}
	fmt.Println("training stable model on 90 simulated experiments...")
	records, err := dataset.Build(ctx, trainCases, dataset.DefaultBuildOptions(seed))
	if err != nil {
		return err
	}
	model, err := core.TrainStable(ctx, records, core.FastStableConfig())
	if err != nil {
		return err
	}

	// The deployment under study: a busy 8-VM server.
	opts := workload.DefaultGenOptions()
	opts.VMCountMin, opts.VMCountMax = 8, 8
	study, err := workload.GenerateCase(opts, seed, "deployment")
	if err != nil {
		return err
	}
	fmt.Printf("deployment: %d VMs, %d tasks\n\n", len(study.VMs), study.NumTasks())

	fans := []int{1, 2, 3, 4, 6}
	ambients := []float64{18, 22, 26, 30}

	fmt.Printf("predicted ψ_stable (°C) by fan count × inlet temperature:\n")
	fmt.Printf("%10s", "fans\\inlet")
	for _, a := range ambients {
		fmt.Printf("%8.0f°C", a)
	}
	fmt.Println()
	for _, f := range fans {
		fmt.Printf("%10d", f)
		for _, a := range ambients {
			scenario := study
			scenario.FanCount = f
			scenario.AmbientC = a
			t, err := model.PredictCase(scenario, 1800)
			if err != nil {
				return err
			}
			fmt.Printf("%10.1f", t)
		}
		fmt.Println()
	}

	// Validate two extreme cells against full simulation.
	fmt.Println("\nvalidating extremes against full simulation:")
	for _, cell := range []struct {
		fans    int
		ambient float64
	}{{6, 18}, {1, 30}} {
		scenario := study
		scenario.FanCount = cell.fans
		scenario.AmbientC = cell.ambient
		predicted, err := model.PredictCase(scenario, 1800)
		if err != nil {
			return err
		}
		cfg := substrate.DefaultConfig()
		cfg.Seed = seed
		res, err := substrate.RunCase(scenario, cfg, 1800)
		if err != nil {
			return err
		}
		measured, err := res.StableTemp(core.DefaultTBreakS)
		if err != nil {
			return err
		}
		fmt.Printf("  %d fans @ %.0f°C inlet: predicted %.2f, simulated %.2f (|err| %.2f)\n",
			cell.fans, cell.ambient, predicted, measured, math.Abs(predicted-measured))
	}
	return nil
}
