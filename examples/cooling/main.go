// Cooling: close the loop the paper's abstract promises — "temperature
// prediction can enhance datacenter thermal management towards minimizing
// cooling power draw." A trained model predicts every server's stable
// temperature; the headroom under the thermal ceiling lets the CRAC supply
// setpoint rise, and warmer supply air cools far more efficiently (higher
// COP). Without prediction the operator must keep a conservative setpoint.
//
// Run with: go run ./examples/cooling
package main

import (
	"context"
	"fmt"
	"log"

	"vmtherm/internal/core"
	"vmtherm/internal/dataset"
	"vmtherm/internal/energy"
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
	const seed = 29
	const refSupply = 16.0 // conservative baseline setpoint, °C

	// Train the predictor.
	gen := workload.DefaultGenOptions()
	gen.AmbientMinC, gen.AmbientMaxC = 14, 30
	trainCases, err := workload.GenerateCases(gen, seed, "train", 80)
	if err != nil {
		return err
	}
	fmt.Println("training stable model on 80 simulated experiments...")
	records, err := dataset.Build(ctx, trainCases, dataset.DefaultBuildOptions(seed))
	if err != nil {
		return err
	}
	model, err := core.TrainStable(ctx, records, core.FastStableConfig())
	if err != nil {
		return err
	}

	// A small fleet of 6 servers with moderate, heterogeneous load.
	fleetGen := workload.DefaultGenOptions()
	fleetGen.VMCountMin, fleetGen.VMCountMax = 4, 9
	fleetGen.FanChoices = []int{4}
	fleetGen.AmbientMinC, fleetGen.AmbientMaxC = refSupply+2, refSupply+2

	preds := map[string]float64{}
	heats := map[string]float64{}
	fmt.Printf("\n%-10s %5s %10s %10s\n", "server", "VMs", "pred°C", "heat W")
	for i := 0; i < 6; i++ {
		c, err := workload.GenerateCase(fleetGen, seed+int64(i), fmt.Sprintf("srv%d", i))
		if err != nil {
			return err
		}
		pred, err := model.PredictCase(c, 1800)
		if err != nil {
			return err
		}
		// Heat from the affine power model at the deployment's utilization.
		var demand float64
		for _, vm := range c.VMs {
			for _, ts := range vm.Tasks {
				demand += ts.Task.CPUFraction
			}
		}
		util := demand / 16 // reference host cores
		heat, err := energy.HostHeat(55, 165, util)
		if err != nil {
			return err
		}
		id := fmt.Sprintf("srv%d", i)
		preds[id] = pred
		heats[id] = heat
		fmt.Printf("%-10s %5d %10.2f %10.1f\n", id, len(c.VMs), pred, heat)
	}

	// Optimize the setpoint against the predictions.
	optimized, err := energy.OptimizeSetpoint(preds, refSupply+2)
	if err != nil {
		return err
	}
	totalHeat, _ := energy.SumHeat(heats)
	report, err := energy.Compare(totalHeat, refSupply, optimized)
	if err != nil {
		return err
	}

	fmt.Printf("\nthermal ceiling: %.0f °C; hottest predicted server determines headroom\n", energy.MaxSafeTempC)
	fmt.Printf("CRAC supply:  %.1f °C (baseline) → %.1f °C (prediction-driven)\n",
		report.BaselineSupplyC, report.OptimizedSupplyC)
	fmt.Printf("COP:          %.2f → %.2f\n", energy.COP(report.BaselineSupplyC), energy.COP(report.OptimizedSupplyC))
	fmt.Printf("cooling draw: %.0f W → %.0f W for %.0f W of server heat\n",
		report.BaselinePowerW, report.OptimizedPowerW, report.HeatW)
	fmt.Printf("savings:      %.1f%% of cooling power\n", report.SavingsFrac()*100)
	return nil
}
