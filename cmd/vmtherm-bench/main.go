// vmtherm-bench regenerates the paper's figures and the repository's
// ablations as human-readable tables (the experiments internal/experiments'
// tests gate).
//
// Usage:
//
//	vmtherm-bench -fig all
//	vmtherm-bench -fig 1c -seed 7
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"

	"vmtherm/internal/experiments"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("vmtherm-bench: ")
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	var (
		fig  = flag.String("fig", "all", "which artifact: 1a, 1b, 1c, ablations, all")
		seed = flag.Int64("seed", 2016, "deterministic seed")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	switch *fig {
	case "1a":
		return fig1a(ctx, *seed)
	case "1b":
		return fig1b(ctx, *seed)
	case "1c":
		return fig1c(ctx, *seed)
	case "ablations":
		return ablations(ctx, *seed)
	case "all":
		for _, f := range []func(context.Context, int64) error{fig1a, fig1b, fig1c, ablations} {
			if err := f(ctx, *seed); err != nil {
				return err
			}
			fmt.Println()
		}
		return nil
	default:
		return fmt.Errorf("unknown -fig %q (want 1a, 1b, 1c, ablations, all)", *fig)
	}
}

func fig1a(ctx context.Context, seed int64) error {
	res, err := experiments.RunFig1a(ctx, experiments.DefaultFig1aConfig(seed))
	if err != nil {
		return err
	}
	fmt.Print(res.Render())
	return nil
}

func fig1b(ctx context.Context, seed int64) error {
	res, err := experiments.RunFig1b(ctx, experiments.DefaultFig1bConfig(seed))
	if err != nil {
		return err
	}
	fmt.Print(res.Render())
	return nil
}

func fig1c(ctx context.Context, seed int64) error {
	res, err := experiments.RunFig1c(ctx, experiments.DefaultFig1cConfig(seed))
	if err != nil {
		return err
	}
	fmt.Print(res.Render())
	return nil
}

func ablations(ctx context.Context, seed int64) error {
	bCfg := experiments.DefaultFig1bConfig(seed)
	bCfg.TrainCases = 48
	lam, err := experiments.RunAblationLambda(ctx, bCfg, []float64{0, 0.2, 0.4, 0.6, 0.8, 1.0}, 6)
	if err != nil {
		return err
	}
	fmt.Print(lam.Render())
	fmt.Println()

	delta, err := experiments.RunAblationCurveDelta(ctx, bCfg, []float64{5, 15, 30, 60, 120}, 6)
	if err != nil {
		return err
	}
	fmt.Print(delta.Render())
	fmt.Println()

	aCfg := experiments.DefaultFig1aConfig(seed)
	aCfg.TrainCases = 96
	base, err := experiments.RunAblationBaselines(ctx, aCfg)
	if err != nil {
		return err
	}
	fmt.Print(base.Render())
	fmt.Println()

	fans, err := experiments.RunAblationFans(ctx, aCfg, []int{1, 2, 4, 6, 8}, 6)
	if err != nil {
		return err
	}
	fmt.Print(fans.Render())
	fmt.Println()

	nCfg := aCfg
	nCfg.TestCases = 12
	noise, err := experiments.RunAblationSensorNoise(ctx, nCfg, []float64{0, 0.2, 0.4, 0.8, 1.6})
	if err != nil {
		return err
	}
	fmt.Print(noise.Render())
	fmt.Println()

	mig, err := experiments.RunMigrationStudy(ctx, bCfg, 900)
	if err != nil {
		return err
	}
	fmt.Print(mig.Render())
	return nil
}
