// vmtherm-train generates a training corpus of simulated experiments, runs
// the easygrid-equivalent (C, γ, ε) search with k-fold cross-validation, and
// saves the trained stable-temperature model.
//
// Usage:
//
//	vmtherm-train -cases 160 -seed 1 -out model.svm -data dataset.csv
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"syscall"

	"vmtherm/internal/core"
	"vmtherm/internal/dataset"
	"vmtherm/internal/mathx"
	"vmtherm/internal/mlgrid"
	"vmtherm/internal/svm"
	"vmtherm/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("vmtherm-train: ")
	if err := run(os.Args[1:], os.Stderr); err != nil {
		log.Fatal(err)
	}
}

// run parses args (exiting on a bad flag, as flag.Parse does), trains and
// writes the model, logging progress to logw.
func run(args []string, logw io.Writer) error {
	fs := flag.NewFlagSet("vmtherm-train", flag.ExitOnError)
	fs.SetOutput(logw)
	var (
		cases    = fs.Int("cases", 160, "number of simulated training experiments")
		testFrac = fs.Float64("test-frac", 0.15, "held-out fraction for the final report")
		seed     = fs.Int64("seed", 1, "deterministic seed")
		out      = fs.String("out", "model.svm", "model output path")
		data     = fs.String("data", "", "optional dataset CSV output path")
		libsvm   = fs.String("libsvm", "", "optional LIBSVM-format dataset output path")
		fast     = fs.Bool("fast", false, "use the reduced grid (quick runs)")
		refine   = fs.Bool("refine", false, "two-stage coarse→fine grid search (easy.py style)")
	)
	_ = fs.Parse(args) // ExitOnError: Parse does not return an error
	logger := log.New(logw, "vmtherm-train: ", 0)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	logger.Printf("generating %d randomized cases (seed %d)", *cases, *seed)
	cs, err := workload.GenerateCases(workload.DefaultGenOptions(), *seed, "train", *cases)
	if err != nil {
		return err
	}
	logger.Printf("simulating %d experiments (1800 s each, t_break 600 s)", len(cs))
	records, err := dataset.Build(ctx, cs, dataset.DefaultBuildOptions(*seed))
	if err != nil {
		return err
	}

	if *data != "" {
		if err := writeFile(*data, func(w io.Writer) error {
			return dataset.WriteCSV(w, records)
		}); err != nil {
			return err
		}
		logger.Printf("dataset CSV written to %s", *data)
	}
	if *libsvm != "" {
		if err := writeFile(*libsvm, func(w io.Writer) error {
			return dataset.WriteLIBSVM(w, records)
		}); err != nil {
			return err
		}
		logger.Printf("LIBSVM dataset written to %s", *libsvm)
	}

	train, test, err := dataset.Split(records, *testFrac, *seed)
	if err != nil {
		return err
	}
	cfg := core.DefaultStableConfig()
	if *fast {
		cfg = core.FastStableConfig()
	}
	if *refine {
		// Two-stage search: replace the grid with a refined one before the
		// final training pass.
		x, y := dataset.FeaturesAndTargets(train)
		scaler, err := svm.NewScaler(cfg.ScaleLower, cfg.ScaleUpper)
		if err != nil {
			return err
		}
		if err := scaler.Fit(x); err != nil {
			return err
		}
		xs, err := scaler.TransformAll(x)
		if err != nil {
			return err
		}
		best, err := mlgrid.SearchRefined(ctx, xs, y, cfg.Grid)
		if err != nil {
			return err
		}
		logger.Printf("refined winner: C=%g gamma=%g eps=%g (cv MSE %.3f)",
			best.Point.C, best.Point.Gamma, best.Point.Epsilon, best.MSE)
		cfg.Grid.Cs = []float64{best.Point.C}
		cfg.Grid.Gammas = []float64{best.Point.Gamma}
		cfg.Grid.Epsilons = []float64{best.Point.Epsilon}
	}
	nPoints := len(cfg.Grid.Cs) * len(cfg.Grid.Gammas) * len(cfg.Grid.Epsilons)
	logger.Printf("grid search: %d points × %d-fold CV on %d records", nPoints, cfg.Grid.Folds, len(train))
	model, err := core.TrainStable(ctx, train, cfg)
	if err != nil {
		return err
	}
	logger.Printf("best point: C=%g gamma=%g eps=%g (cv MSE %.3f, %d SVs)",
		model.Best().C, model.Best().Gamma, model.Best().Epsilon, model.CVMSE(), model.NumSV())

	if len(test) > 0 {
		var ps, as []float64
		for _, r := range test {
			p, err := model.PredictFeatures(r.Features)
			if err != nil {
				return err
			}
			ps = append(ps, p)
			as = append(as, r.StableTemp)
		}
		mse, err := mathx.MSE(ps, as)
		if err != nil {
			return err
		}
		logger.Printf("held-out MSE on %d records: %.3f (paper band: ≤1.10)", len(test), mse)
	}

	if err := writeFile(*out, model.Save); err != nil {
		return err
	}
	logger.Printf("model written to %s", *out)
	return nil
}

// writeFile creates path, runs write, and closes with error propagation.
func writeFile(path string, write func(io.Writer) error) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("closing %s: %w", path, cerr)
		}
	}()
	return write(f)
}
