package svm

import (
	"errors"
	"fmt"
	"math"
)

// kktTol is the KKT stopping tolerance, LIBSVM's default (-e 0.001).
const kktTol = 1e-3

// TrainParams configures ε-SVR training; fields mirror LIBSVM's command-line
// options.
type TrainParams struct {
	// Kernel selects and parameterizes the kernel (-t, -g, -r, -d).
	Kernel Kernel
	// C is the regularization/box constraint (-c).
	C float64
	// Epsilon is the ε-tube half-width of the loss (-p).
	Epsilon float64
	// MaxIter bounds SMO iterations. Zero selects a generous default.
	MaxIter int
	// Selection picks the working-set rule; the zero value is
	// MaxViolatingPair. SecondOrder matches LIBSVM's WSS2 and typically
	// converges in fewer iterations.
	Selection SelectionRule
}

// Validate checks the training configuration.
func (p TrainParams) Validate() error {
	if err := p.Kernel.Validate(); err != nil {
		return err
	}
	// Written as the conditions that must hold, so NaN fails them.
	if !(p.C > 0 && p.C <= math.MaxFloat64) {
		return fmt.Errorf("svm: C must be > 0 and finite, got %v", p.C)
	}
	if !(p.Epsilon >= 0 && p.Epsilon <= math.MaxFloat64) {
		return fmt.Errorf("svm: epsilon must be >= 0 and finite, got %v", p.Epsilon)
	}
	if p.MaxIter < 0 {
		return fmt.Errorf("svm: maxIter must be >= 0, got %d", p.MaxIter)
	}
	if p.Selection != MaxViolatingPair && p.Selection != SecondOrder {
		return fmt.Errorf("svm: unknown selection rule %d", int(p.Selection))
	}
	return nil
}

// Model is a trained ε-SVR: f(x) = Σ_i Coef_i·K(SV_i, x) − Rho.
type Model struct {
	Kernel Kernel
	// SV holds the support vectors (samples with non-zero coefficient).
	SV [][]float64
	// Coef holds β_i for each support vector.
	Coef []float64
	// Rho is the offset; predictions subtract it, as in LIBSVM.
	Rho float64
	// Dim is the feature dimensionality.
	Dim int
	// Iters records the SMO iterations used in training (informational).
	Iters int

	batchCache // flattened-SV matrix for PredictBatch, built lazily
}

// Train fits an ε-SVR on features x and targets z. Up to 4096 samples
// (MaxGramValues kernel values) it evaluates the whole Gram matrix first,
// each pair once; past that, kernel rows are evaluated as the solver asks
// for them and at most MaxGramValues values stay resident.
func Train(x [][]float64, z []float64, params TrainParams) (*Model, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if err := checkSamples(x); err != nil {
		return nil, err
	}
	if len(x) != len(z) {
		return nil, fmt.Errorf("svm: %d feature rows vs %d targets", len(x), len(z))
	}
	if l := len(x); l > MaxGramValues/l {
		return fit(newRowCache(l, params.Kernel, x), z, params)
	}
	return fit(buildGram(x, params.Kernel).cache(nil), z, params)
}

// checkSamples requires at least one feature row, all of one positive
// length and finite.
func checkSamples(x [][]float64) error {
	if len(x) == 0 {
		return errors.New("svm: no training data")
	}
	dim := len(x[0])
	if dim == 0 {
		return errors.New("svm: zero-dimensional features")
	}
	for i, row := range x {
		if len(row) != dim {
			return fmt.Errorf("svm: row %d has %d features, want %d", i, len(row), dim)
		}
		for j, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("svm: row %d feature %d is %v", i, j, v)
			}
		}
	}
	return nil
}

// fit runs SMO on targets z over the samples whose kernel rows cache
// serves, and keeps the samples with a non-zero coefficient.
func fit(cache *rowCache, z []float64, params TrainParams) (*Model, error) {
	for i, v := range z {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("svm: target %d is %v", i, v)
		}
	}
	maxIter := params.MaxIter
	if maxIter == 0 {
		maxIter = 10_000_000
	}

	s := cacheSolver(cache, z, params.C, params.Epsilon, kktTol, maxIter, params.Selection)
	beta, rho, iters, err := s.solve()
	if err != nil {
		return nil, err
	}

	dim := len(cache.features(0))
	m := &Model{Kernel: params.Kernel, Rho: rho, Dim: dim, Iters: iters}
	for i, b := range beta {
		if b != 0 {
			sv := make([]float64, dim)
			copy(sv, cache.features(i))
			m.SV = append(m.SV, sv)
			m.Coef = append(m.Coef, b)
		}
	}
	return m, nil
}

// Predict evaluates the model on one feature vector: one row through
// PredictBatchInto, so a single prediction and a batch of one are the same
// bits whichever entry point served them.
func (m *Model) Predict(x []float64) (float64, error) {
	if len(x) != m.Dim {
		return 0, fmt.Errorf("svm: predict with %d features, model wants %d", len(x), m.Dim)
	}
	var out [1]float64
	err := m.PredictBatchInto(x, out[:], new(BatchScratch))
	return out[0], err
}

// NumSV returns the support vector count.
func (m *Model) NumSV() int { return len(m.SV) }
