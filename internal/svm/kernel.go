// Package svm implements ε-Support-Vector-Regression compatible with the
// LIBSVM 3.x formulation the paper trains on (Wu et al. use LIBSVM 3.17 with
// the RBF kernel). Training solves the dual problem with Sequential Minimal
// Optimization using maximal-violating-pair working-set selection, the same
// strategy as LIBSVM's Solver; prediction, the ε-tube, the C box constraint
// and the ρ offset all follow the LIBSVM conventions so hyper-parameters and
// model files transfer mentally one-to-one.
//
// The package is self-contained (stdlib only), deterministic, and validated
// in its tests against analytically solvable regression problems and the
// KKT optimality conditions.
package svm

import (
	"fmt"
	"math"
)

// KernelType selects the kernel function.
type KernelType int

// Supported kernels, matching LIBSVM's -t option order.
const (
	Linear KernelType = iota + 1
	Polynomial
	RBF
	Sigmoid
)

// String implements fmt.Stringer using LIBSVM's model-file names.
func (k KernelType) String() string {
	switch k {
	case Linear:
		return "linear"
	case Polynomial:
		return "polynomial"
	case RBF:
		return "rbf"
	case Sigmoid:
		return "sigmoid"
	default:
		return fmt.Sprintf("KernelType(%d)", int(k))
	}
}

// ParseKernelType converts a LIBSVM kernel name back to its KernelType.
func ParseKernelType(s string) (KernelType, error) {
	switch s {
	case "linear":
		return Linear, nil
	case "polynomial":
		return Polynomial, nil
	case "rbf":
		return RBF, nil
	case "sigmoid":
		return Sigmoid, nil
	default:
		return 0, fmt.Errorf("svm: unknown kernel %q", s)
	}
}

// Kernel evaluates k(x, z) for a kernel family with fixed hyper-parameters.
type Kernel struct {
	Type   KernelType
	Gamma  float64 // RBF / polynomial / sigmoid scale
	Coef0  float64 // polynomial / sigmoid offset
	Degree int     // polynomial degree
}

// Validate checks hyper-parameter sanity for the chosen kernel family. Gamma
// must be positive and finite: NaN fails every comparison, so the test is
// written as the condition that must hold.
func (k Kernel) Validate() error {
	gammaOK := k.Gamma > 0 && !math.IsInf(k.Gamma, 1)
	switch k.Type {
	case Linear:
		return nil
	case RBF:
		if !gammaOK {
			return fmt.Errorf("svm: rbf gamma must be > 0 and finite, got %v", k.Gamma)
		}
		return nil
	case Polynomial:
		if k.Degree < 1 {
			return fmt.Errorf("svm: polynomial degree must be >= 1, got %d", k.Degree)
		}
		if !gammaOK {
			return fmt.Errorf("svm: polynomial gamma must be > 0 and finite, got %v", k.Gamma)
		}
		return nil
	case Sigmoid:
		if !gammaOK {
			return fmt.Errorf("svm: sigmoid gamma must be > 0 and finite, got %v", k.Gamma)
		}
		return nil
	default:
		return fmt.Errorf("svm: unknown kernel type %d", int(k.Type))
	}
}

// Eval computes k(x, z). Vectors must have equal length; this is enforced by
// the training and prediction entry points rather than re-checked per call.
func (k Kernel) Eval(x, z []float64) float64 {
	switch k.Type {
	case Linear:
		return dot(x, z)
	case Polynomial:
		return math.Pow(k.Gamma*dot(x, z)+k.Coef0, float64(k.Degree))
	case RBF:
		return math.Exp(-k.Gamma * sqDist(x, z))
	case Sigmoid:
		return math.Tanh(k.Gamma*dot(x, z) + k.Coef0)
	default:
		panic(fmt.Sprintf("svm: Eval on invalid kernel %d", int(k.Type)))
	}
}

func dot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

func sqDist(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}
