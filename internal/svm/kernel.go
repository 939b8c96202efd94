// Package svm implements ε-Support-Vector-Regression compatible with the
// LIBSVM 3.x formulation the paper trains on (Wu et al. use LIBSVM 3.17 with
// the RBF kernel). Training solves the dual problem with Sequential Minimal
// Optimization. Its working-set selection is LIBSVM's second-order rule
// (WSS2, Fan, Chen & Lin 2005), which every trainer in this repository
// selects through mlgrid; the zero-value TrainParams.Selection is the
// first-order maximal violating pair. Prediction, the ε-tube, the C box
// constraint and the ρ offset all follow the LIBSVM conventions so
// hyper-parameters and model files transfer mentally one-to-one.
//
// An SMO iteration makes two passes over the dual variables, WSS2's scan
// for j and the gradient update fused with the next first-order scan. Each
// is one loop over the l samples that handles a sample's two variables
// (α_k and α*_k in LIBSVM's doubled problem) together, and on amd64 it runs
// four samples at a time with AVX2, eight with AVX-512. Every pick goes to
// the first index among equal values, as a scalar scan in index order would
// give it, and WSS2's gain b²/a stays a true division: the model is the
// same to the bit on every build. At eight lanes WSS2's scan first
// estimates every gain as b²·VRCP14PD(a), within 2^-14, and divides only
// for the survivors: a lane whose estimate could not be trusted, or is
// within a factor 1 − 2^-10 of its half's largest. A lane holding the true
// maximum has an estimate at least (1 − 2^-14) of its gain, and the largest
// estimate is at most (1 + 2^-14) of that gain, so it always survives; the
// proof in full is at the solver type.
//
// Kernel values come from a Gram matrix: Train evaluates the kernel once
// per pair of samples up to 4096 samples, and NewGram and TrainGram let a
// grid search train every fold, C and ε at one γ from one matrix.
//
// The package is self-contained (stdlib only), deterministic, and validated
// in its tests against analytically solvable regression problems and the
// KKT optimality conditions.
package svm

import (
	"fmt"
	"math"
)

// rbfKernelType is the kernel_type a model file names: the RBF kernel, the
// one family the paper trains (LIBSVM -t 2).
const rbfKernelType = "rbf"

// Kernel is the RBF kernel k(x, z) = exp(−γ‖x − z‖²) with its one
// hyper-parameter.
type Kernel struct {
	Gamma float64 // -g
}

// Validate checks that Gamma is positive and finite: NaN fails every
// comparison, so the test is written as the condition that must hold.
func (k Kernel) Validate() error {
	if !(k.Gamma > 0) || math.IsInf(k.Gamma, 1) {
		return fmt.Errorf("svm: rbf gamma must be > 0 and finite, got %v", k.Gamma)
	}
	return nil
}

// evalHook, when set, sees every Eval call. Only tests set it, to count
// kernel evaluations.
var evalHook func(k Kernel, x, z []float64)

// Eval computes k(x, z). Vectors must have equal length; this is enforced by
// the training and prediction entry points rather than re-checked per call.
func (k Kernel) Eval(x, z []float64) float64 {
	if evalHook != nil {
		evalHook(k, x, z)
	}
	return math.Exp(-k.Gamma * sqDist(x, z))
}

func sqDist(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}
