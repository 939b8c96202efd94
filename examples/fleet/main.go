// Fleet: the closed thermal control loop at rack scale — the paper's
// prediction feeding proactive management. A 2-rack × 8-host fleet streams
// telemetry into per-host dynamic sessions; one machine is deliberately
// overloaded. The control plane flags it as a hotspot from its *predicted*
// Δ_gap-ahead temperature before the measured temperature crosses the
// threshold, and migrates load away before the hotspot materializes.
//
// Run with: go run ./examples/fleet
package main

import (
	"context"
	"fmt"
	"log"

	"vmtherm"
)

const (
	thresholdC = 70.0
	seed       = 42
)

func main() {
	log.SetFlags(0)
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	ctx := context.Background()

	fmt.Println("training stable model on 24 simulated experiments...")
	cases, err := vmtherm.GenerateCases(vmtherm.DefaultGenOptions(), seed, "train", 24)
	if err != nil {
		return err
	}
	records, err := vmtherm.BuildDataset(ctx, cases, vmtherm.DefaultBuildOptions(seed))
	if err != nil {
		return err
	}
	model, err := vmtherm.TrainStable(ctx, records, vmtherm.FastStableConfig())
	if err != nil {
		return err
	}

	cfg := vmtherm.DefaultFleetConfig()
	cfg.Racks = 2
	cfg.HostsPerRack = 8
	cfg.ThresholdC = thresholdC
	cfg.MaxMigrationsPerRound = 1
	cfg.Seed = seed
	ctl, err := vmtherm.NewFleet(cfg, vmtherm.FleetStablePredictor(model, 1800))
	if err != nil {
		return err
	}

	// Overload one machine: 6 × 4-vCPU VMs running flat-out.
	for v := 0; v < 6; v++ {
		if err := ctl.PlaceAt("r0-h0", vmtherm.FleetHeavyVMSpec(fmt.Sprintf("hot-%02d", v), 4, 8)); err != nil {
			return err
		}
	}

	fmt.Printf("\n16-host fleet, threshold %.0f °C, Δ_update %.0f s, Δ_gap %.0f s; host r0-h0 overloaded\n\n",
		thresholdC, cfg.UpdateEveryS, cfg.GapS)
	flagged := false
	for round := 1; round <= 24; round++ {
		rep, err := ctl.RunRound()
		if err != nil {
			return err
		}
		die, err := ctl.MeasuredDieTemp("r0-h0")
		if err != nil {
			return err
		}
		var predicted float64
		ctl.ViewSnapshot(func(s *vmtherm.FleetSnapshot) { predicted = s.Predicted["r0-h0"] })
		mark := ""
		if rep.Hotspots > 0 && !flagged {
			flagged = true
			mark = fmt.Sprintf("  ← flagged from prediction (measured only %.1f °C)", die)
		} else if rep.AppliedMoves > 0 {
			mark = "  ← migrated load away"
		}
		fmt.Printf("round %2d t=%4.0fs  measured %.1f °C  predicted(+%.0fs) %.1f °C  hotspots %d  moves %d%s\n",
			rep.Round, rep.SimTimeS, die, cfg.GapS, predicted, rep.Hotspots, rep.AppliedMoves, mark)
	}
	fmt.Println("\nthe loop acts on predicted temperature: flagged rounds before the measured crossing, then drained by migration.")
	return nil
}
