// Package mlgrid reproduces the paper's hyper-parameter selection procedure:
// "Parameters for model training are selected using easygrid, a tool for grid
// parameter search, with 10-fold validation." It exhaustively scores a
// (C, γ, ε) grid by k-fold cross-validated MSE, evaluating grid points on a
// bounded worker pool with deterministic fold assignment.
package mlgrid

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"

	"vmtherm/internal/mathx"
	"vmtherm/internal/svm"
)

// Point is one grid cell: the hyper-parameters being searched.
type Point struct {
	C       float64
	Gamma   float64
	Epsilon float64
}

// Result is a scored grid point.
type Result struct {
	Point Point
	// MSE is the mean of per-fold validation MSEs.
	MSE float64
	// Err is non-nil if any fold failed to train; such points lose ties.
	Err error
}

// Config configures the search.
type Config struct {
	// Cs, Gammas, Epsilons enumerate the grid axes. easygrid's defaults are
	// exponential ladders; Default() provides equivalents.
	Cs, Gammas, Epsilons []float64
	// Folds is the cross-validation fold count; the paper uses 10.
	Folds int
	// Kernel is the kernel family searched (gamma is overridden per point).
	Kernel svm.Kernel
	// Seed drives the deterministic fold shuffle.
	Seed int64
	// Workers bounds parallelism; 0 selects GOMAXPROCS.
	Workers int
	// MaxIter is passed through to svm.Train (0 = library default).
	MaxIter int
	// Selection is the SMO working-set rule; Default() picks SecondOrder
	// (LIBSVM's WSS2).
	Selection svm.SelectionRule
}

// Default returns an easygrid-like exponential grid with 10-fold validation.
func Default() Config {
	return Config{
		Cs:        ladder(-2, 8, 2), // 2^-2 .. 2^8
		Gammas:    ladder(-8, 2, 2), // 2^-8 .. 2^2
		Epsilons:  []float64{0.05, 0.1, 0.2},
		Folds:     10,
		Kernel:    svm.Kernel{Type: svm.RBF, Gamma: 1},
		Seed:      1,
		Selection: svm.SecondOrder,
	}
}

func ladder(lo, hi, step int) []float64 {
	var out []float64
	for e := lo; e <= hi; e += step {
		out = append(out, math.Pow(2, float64(e)))
	}
	return out
}

// Validate checks the search configuration.
func (c Config) Validate() error {
	if len(c.Cs) == 0 || len(c.Gammas) == 0 || len(c.Epsilons) == 0 {
		return errors.New("mlgrid: empty grid axis")
	}
	if c.Folds < 2 {
		return fmt.Errorf("mlgrid: folds must be >= 2, got %d", c.Folds)
	}
	if c.Workers < 0 {
		return fmt.Errorf("mlgrid: negative workers %d", c.Workers)
	}
	return nil
}

// Search scores every grid point by k-fold cross-validation and returns all
// results sorted by MSE ascending (failed points last), plus the best point.
// It honours ctx cancellation.
func Search(ctx context.Context, x [][]float64, y []float64, cfg Config) (best Result, all []Result, err error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, nil, err
	}
	if len(x) != len(y) {
		return Result{}, nil, fmt.Errorf("mlgrid: %d rows vs %d targets", len(x), len(y))
	}
	if len(x) < cfg.Folds {
		return Result{}, nil, fmt.Errorf("mlgrid: %d samples cannot fill %d folds", len(x), cfg.Folds)
	}

	folds := assignFolds(len(x), cfg.Folds, cfg.Seed)

	var points []Point
	for _, c := range cfg.Cs {
		for _, g := range cfg.Gammas {
			for _, e := range cfg.Epsilons {
				points = append(points, Point{C: c, Gamma: g, Epsilon: e})
			}
		}
	}

	workers := cfg.Workers
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(points) {
		workers = len(points)
	}

	jobs := make(chan int)
	results := make([]Result, len(points))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range jobs {
				p := points[idx]
				mse, err := crossValidate(ctx, x, y, folds, cfg, p)
				results[idx] = Result{Point: p, MSE: mse, Err: err}
			}
		}()
	}
	// Feed jobs; stop early on cancellation.
feed:
	for i := range points {
		select {
		case <-ctx.Done():
			break feed
		case jobs <- i:
		}
	}
	close(jobs)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return Result{}, nil, fmt.Errorf("mlgrid: search cancelled: %w", err)
	}

	sort.SliceStable(results, func(i, j int) bool {
		ri, rj := results[i], results[j]
		if (ri.Err == nil) != (rj.Err == nil) {
			return ri.Err == nil
		}
		return ri.MSE < rj.MSE
	})
	if results[0].Err != nil {
		return Result{}, results, fmt.Errorf("mlgrid: every grid point failed; first: %w", results[0].Err)
	}
	return results[0], results, nil
}

// SearchRefined runs a coarse search followed by a fine search on a denser
// grid centred at the coarse winner — the two-stage procedure easy.py
// popularized. The fine grid spans one coarse step around the winner on the
// C and γ axes (ε is kept from the winner). Returns the better of the two
// stages.
func SearchRefined(ctx context.Context, x [][]float64, y []float64, cfg Config) (Result, error) {
	coarseBest, _, err := Search(ctx, x, y, cfg)
	if err != nil {
		return Result{}, err
	}
	fine := cfg
	fine.Cs = refineAxis(cfg.Cs, coarseBest.Point.C)
	fine.Gammas = refineAxis(cfg.Gammas, coarseBest.Point.Gamma)
	fine.Epsilons = []float64{coarseBest.Point.Epsilon}
	fineBest, _, err := Search(ctx, x, y, fine)
	if err != nil {
		return Result{}, err
	}
	if fineBest.MSE < coarseBest.MSE {
		return fineBest, nil
	}
	return coarseBest, nil
}

// refineAxis builds a 5-point geometric axis spanning one coarse step on
// each side of the winning value.
func refineAxis(coarse []float64, winner float64) []float64 {
	step := 4.0 // default coarse ratio
	if len(coarse) >= 2 && coarse[0] > 0 {
		step = coarse[1] / coarse[0]
	}
	if step <= 1 {
		return []float64{winner}
	}
	half := math.Sqrt(step)
	return []float64{winner / step, winner / half, winner, winner * half, winner * step}
}

// crossValidate returns the mean validation MSE of point p across folds.
func crossValidate(ctx context.Context, x [][]float64, y []float64, folds []int, cfg Config, p Point) (float64, error) {
	k := cfg.Folds
	var total float64
	for f := 0; f < k; f++ {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		var trainX, valX [][]float64
		var trainY, valY []float64
		for i := range x {
			if folds[i] == f {
				valX = append(valX, x[i])
				valY = append(valY, y[i])
			} else {
				trainX = append(trainX, x[i])
				trainY = append(trainY, y[i])
			}
		}
		if len(valX) == 0 {
			return 0, fmt.Errorf("mlgrid: fold %d empty", f)
		}
		kernel := cfg.Kernel
		kernel.Gamma = p.Gamma
		m, err := svm.Train(trainX, trainY, svm.TrainParams{
			Kernel:    kernel,
			C:         p.C,
			Epsilon:   p.Epsilon,
			MaxIter:   cfg.MaxIter,
			Selection: cfg.Selection,
		})
		if err != nil {
			return 0, fmt.Errorf("mlgrid: fold %d: %w", f, err)
		}
		pred, err := m.PredictBatch(valX)
		if err != nil {
			return 0, err
		}
		mse, err := mathx.MSE(pred, valY)
		if err != nil {
			return 0, err
		}
		total += mse
	}
	return total / float64(k), nil
}

// assignFolds deterministically shuffles sample indices into k folds.
func assignFolds(n, k int, seed int64) []int {
	rng := mathx.SplitStable(seed, "mlgrid-folds")
	perm := rng.Perm(n)
	folds := make([]int, n)
	for pos, idx := range perm {
		folds[idx] = pos % k
	}
	return folds
}
