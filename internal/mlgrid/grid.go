// Package mlgrid reproduces the paper's hyper-parameter selection procedure:
// "Parameters for model training are selected using easygrid, a tool for grid
// parameter search, with 10-fold validation." It exhaustively scores a
// (C, γ, ε) grid by k-fold cross-validated MSE, evaluating grid points on
// GOMAXPROCS workers with deterministic fold assignment. Every fold, C and
// ε at one γ — and, through Fit, the final model — train from one
// svm.Gram, so the kernel is evaluated once per pair of samples per γ.
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
	"vmtherm/internal/shard"
	"vmtherm/internal/svm"
)

// foldSeed drives the deterministic fold shuffle.
const foldSeed int64 = 1

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
	// Kernel is the RBF kernel searched (gamma is overridden per point).
	Kernel svm.Kernel
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
		Kernel:    svm.Kernel{Gamma: 1},
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
	// Written as the conditions that must hold, so NaN fails them.
	finite := func(v float64) bool { return v <= math.MaxFloat64 }
	for _, v := range c.Cs {
		if !(v > 0 && finite(v)) {
			return fmt.Errorf("mlgrid: C %v must be > 0 and finite", v)
		}
	}
	for _, v := range c.Gammas {
		if !(v > 0 && finite(v)) {
			return fmt.Errorf("mlgrid: gamma %v must be > 0 and finite", v)
		}
	}
	for _, v := range c.Epsilons {
		if !(v >= 0 && finite(v)) {
			return fmt.Errorf("mlgrid: epsilon %v must be >= 0 and finite", v)
		}
	}
	if c.Folds < 2 {
		return fmt.Errorf("mlgrid: folds must be >= 2, got %d", c.Folds)
	}
	return nil
}

// Search scores every grid point by k-fold cross-validation and returns all
// results sorted by MSE ascending (failed points last), plus the best point.
// It honours ctx cancellation.
func Search(ctx context.Context, x [][]float64, y []float64, cfg Config) (best Result, all []Result, err error) {
	best, all, _, err = search(ctx, x, y, cfg)
	return best, all, err
}

// Fit is Search followed by the final fit: the best point trained on all
// of x and y, from the Gram matrix its cross-validation used where one was
// kept.
func Fit(ctx context.Context, x [][]float64, y []float64, cfg Config) (best Result, m *svm.Model, err error) {
	best, _, grams, err := search(ctx, x, y, cfg)
	if err != nil {
		return Result{}, nil, err
	}
	p := cfg.params(best.Point)
	if grams == nil {
		m, err = svm.Train(x, y, p)
	} else if g, gerr := grams.get(best.Point.Gamma); gerr != nil {
		err = gerr
	} else {
		m, err = svm.TrainGram(g, nil, y, p)
	}
	if err != nil {
		return Result{}, nil, fmt.Errorf("mlgrid: final fit: %w", err)
	}
	return best, m, nil
}

// params are the training parameters of grid point p.
func (c Config) params(p Point) svm.TrainParams {
	kernel := c.Kernel
	kernel.Gamma = p.Gamma
	return svm.TrainParams{
		Kernel:    kernel,
		C:         p.C,
		Epsilon:   p.Epsilon,
		MaxIter:   c.MaxIter,
		Selection: c.Selection,
	}
}

// search is Search, and also returns the Gram matrices it trained from
// (nil when x is too large for one).
func search(ctx context.Context, x [][]float64, y []float64, cfg Config) (best Result, all []Result, grams *gramSet, err error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, nil, nil, err
	}
	if len(x) != len(y) {
		return Result{}, nil, nil, fmt.Errorf("mlgrid: %d rows vs %d targets", len(x), len(y))
	}
	if len(x) < cfg.Folds {
		return Result{}, nil, nil, fmt.Errorf("mlgrid: %d samples cannot fill %d folds", len(x), cfg.Folds)
	}

	folds := assignFolds(len(x), cfg.Folds, foldSeed)

	// results keep the C-major order, which breaks ties in the sort below;
	// the jobs go out γ-major, so each γ's Gram matrix is built once and,
	// when not all fit in memory together, dropped after its last point.
	var points []Point
	for _, c := range cfg.Cs {
		for _, g := range cfg.Gammas {
			for _, e := range cfg.Epsilons {
				points = append(points, Point{C: c, Gamma: g, Epsilon: e})
			}
		}
	}
	nG, nE := len(cfg.Gammas), len(cfg.Epsilons)
	var order []int
	for g := range nG {
		for c := range cfg.Cs {
			for e := range nE {
				order = append(order, (c*nG+g)*nE+e)
			}
		}
	}
	grams = newGramSet(x, cfg, points)

	results := make([]Result, len(points))
	if err := shard.Each(ctx, len(order), runtime.GOMAXPROCS(0), func(k int) {
		p := points[order[k]]
		mse, err := crossValidate(ctx, x, y, folds, cfg, p, grams)
		results[order[k]] = Result{Point: p, MSE: mse, Err: err}
	}); err != nil {
		return Result{}, nil, nil, fmt.Errorf("mlgrid: search cancelled: %w", err)
	}

	sort.SliceStable(results, func(i, j int) bool {
		ri, rj := results[i], results[j]
		if (ri.Err == nil) != (rj.Err == nil) {
			return ri.Err == nil
		}
		return ri.MSE < rj.MSE
	})
	if results[0].Err != nil {
		return Result{}, results, nil, fmt.Errorf("mlgrid: every grid point failed; first: %w", results[0].Err)
	}
	return results[0], results, grams, nil
}

// gramSet holds one Gram matrix per γ of a search over x, built by the
// first worker that needs it. When every γ's matrix fits under
// svm.MaxGramValues together they are all kept, for Fit's final training;
// otherwise each is dropped once its last grid point is scored, and Fit
// builds the winner's again.
type gramSet struct {
	x      [][]float64
	kernel svm.Kernel // γ set per matrix
	keep   bool
	mu     sync.Mutex
	byGam  map[float64]*gramEntry
}

type gramEntry struct {
	once    sync.Once
	g       *svm.Gram
	err     error
	pending int // grid points at this γ not yet scored
}

// newGramSet returns the Gram matrices of the points' γs over x, or nil
// when one matrix over x would exceed svm.MaxGramValues.
func newGramSet(x [][]float64, cfg Config, points []Point) *gramSet {
	n := len(x)
	if n == 0 || n > svm.MaxGramValues/n {
		return nil
	}
	s := &gramSet{x: x, kernel: cfg.Kernel, byGam: make(map[float64]*gramEntry)}
	for _, p := range points {
		e := s.byGam[p.Gamma]
		if e == nil {
			e = new(gramEntry)
			s.byGam[p.Gamma] = e
		}
		e.pending++
	}
	s.keep = len(s.byGam) <= svm.MaxGramValues/(n*n)
	return s
}

// entry returns γ's entry, making a fresh one for a γ already dropped.
func (s *gramSet) entry(gamma float64) *gramEntry {
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.byGam[gamma]
	if e == nil || e.pending == 0 && !s.keep {
		e = new(gramEntry)
		s.byGam[gamma] = e
	}
	return e
}

// get returns the Gram matrix at γ, building it on first use.
func (s *gramSet) get(gamma float64) (*svm.Gram, error) {
	e := s.entry(gamma)
	e.once.Do(func() {
		k := s.kernel
		k.Gamma = gamma
		e.g, e.err = svm.NewGram(s.x, k)
	})
	return e.g, e.err
}

// done records that one grid point at γ is scored, and drops γ's matrix
// after the last one unless the set keeps them all.
func (s *gramSet) done(gamma float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.byGam[gamma]
	if e.pending--; e.pending == 0 && !s.keep {
		e.g = nil
	}
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

// crossValidate returns the mean validation MSE of point p across folds,
// each fold trained from γ's Gram matrix when grams has one.
func crossValidate(ctx context.Context, x [][]float64, y []float64, folds []int, cfg Config, p Point, grams *gramSet) (float64, error) {
	var g *svm.Gram
	if grams != nil {
		defer grams.done(p.Gamma)
		var err error
		if g, err = grams.get(p.Gamma); err != nil {
			return 0, err
		}
	}
	params := cfg.params(p)
	k := cfg.Folds
	var total float64
	for f := 0; f < k; f++ {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		var trainIdx []int
		var valX [][]float64
		var trainY, valY []float64
		for i := range x {
			if folds[i] == f {
				valX = append(valX, x[i])
				valY = append(valY, y[i])
			} else {
				trainIdx = append(trainIdx, i)
				trainY = append(trainY, y[i])
			}
		}
		if len(valX) == 0 {
			return 0, fmt.Errorf("mlgrid: fold %d empty", f)
		}
		var m *svm.Model
		var err error
		if g != nil {
			m, err = svm.TrainGram(g, trainIdx, trainY, params)
		} else {
			trainX := make([][]float64, len(trainIdx))
			for t, i := range trainIdx {
				trainX[t] = x[i]
			}
			m, err = svm.Train(trainX, trainY, params)
		}
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
