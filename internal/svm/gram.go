package svm

import (
	"errors"
	"fmt"
)

// MaxGramValues caps the kernel values one fit holds: a Gram matrix has n²
// of them, and a solver's row cache keeps at most this many (~128 MB of
// float64s).
const MaxGramValues = 16 << 20

// Gram is the kernel matrix K(x_i, x_j) of one kernel over a fixed set of
// samples, n×n row-major. It is read-only once built, so concurrent fits
// may share it: a grid search trains every fold, C and ε at one γ, and
// then the final model, from one Gram through TrainGram, and none of them
// evaluates the kernel again.
type Gram struct {
	k Kernel
	x [][]float64
	n int
	m []float64
}

// NewGram checks the samples x and the kernel k as Train does and
// evaluates k over every pair of samples, each unordered pair once:
// Kernel.Eval is symmetric to the bit, so K(x_j, x_i) is K(x_i, x_j)'s
// value. n² must not exceed MaxGramValues.
func NewGram(x [][]float64, k Kernel) (*Gram, error) {
	if err := k.Validate(); err != nil {
		return nil, err
	}
	if err := checkSamples(x); err != nil {
		return nil, err
	}
	if n := len(x); n > MaxGramValues/n {
		return nil, fmt.Errorf("svm: a Gram matrix over %d samples exceeds %d values", n, MaxGramValues)
	}
	return buildGram(x, k), nil
}

// buildGram is NewGram on checked samples and kernel.
func buildGram(x [][]float64, k Kernel) *Gram {
	n := len(x)
	g := &Gram{k: k, x: x, n: n, m: make([]float64, n*n)}
	for i, xi := range x {
		for j := i; j < n; j++ {
			v := k.Eval(xi, x[j])
			g.m[i*n+j], g.m[j*n+i] = v, v
		}
	}
	return g
}

// cache returns a solver's row cache over the samples idx of g (all of
// them when idx is nil).
func (g *Gram) cache(idx []int) *rowCache {
	l := g.n
	if idx != nil {
		l = len(idx)
	}
	return &rowCache{k: g.k, x: g.x, gram: g, idx: idx, rows: make([][]float64, l), maxRows: l}
}

// row returns K(x_i, ·).
func (g *Gram) row(i int) []float64 {
	return g.m[i*g.n : (i+1)*g.n : (i+1)*g.n]
}

// TrainGram fits an ε-SVR on the samples idx of g — all of them, in order,
// when idx is nil — with targets z. The model has the bits Train gives on
// the same rows. params.Kernel must be the kernel g was built with.
func TrainGram(g *Gram, idx []int, z []float64, params TrainParams) (*Model, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if params.Kernel != g.k {
		return nil, fmt.Errorf("svm: kernel %+v differs from the Gram matrix's %+v", params.Kernel, g.k)
	}
	l := g.n
	if idx != nil {
		l = len(idx)
		for _, s := range idx {
			if s < 0 || s >= g.n {
				return nil, fmt.Errorf("svm: sample %d outside a Gram matrix of %d", s, g.n)
			}
		}
	}
	if l == 0 {
		return nil, errors.New("svm: no training data")
	}
	if len(z) != l {
		return nil, fmt.Errorf("svm: %d samples vs %d targets", l, len(z))
	}
	return fit(g.cache(idx), z, params)
}
