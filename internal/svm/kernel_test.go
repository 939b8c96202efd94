package svm

import (
	"math"
	"testing"
	"testing/quick"
)

func TestKernelValidate(t *testing.T) {
	tests := []struct {
		name string
		k    Kernel
		ok   bool
	}{
		{"linear", Kernel{Type: Linear}, true},
		{"rbf ok", Kernel{Type: RBF, Gamma: 0.5}, true},
		{"rbf zero gamma", Kernel{Type: RBF}, false},
		{"rbf nan gamma", Kernel{Type: RBF, Gamma: math.NaN()}, false},
		{"rbf inf gamma", Kernel{Type: RBF, Gamma: math.Inf(1)}, false},
		{"poly ok", Kernel{Type: Polynomial, Gamma: 1, Degree: 3}, true},
		{"poly zero degree", Kernel{Type: Polynomial, Gamma: 1}, false},
		{"poly zero gamma", Kernel{Type: Polynomial, Degree: 2}, false},
		{"sigmoid ok", Kernel{Type: Sigmoid, Gamma: 0.1}, true},
		{"sigmoid zero gamma", Kernel{Type: Sigmoid}, false},
		{"unknown", Kernel{Type: KernelType(99)}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.k.Validate()
			if (err == nil) != tt.ok {
				t.Errorf("Validate() = %v, ok %v", err, tt.ok)
			}
		})
	}
}

func TestLinearKernelIsDot(t *testing.T) {
	k := Kernel{Type: Linear}
	if got := k.Eval([]float64{1, 2, 3}, []float64{4, 5, 6}); got != 32 {
		t.Errorf("linear = %v, want 32", got)
	}
}

func TestRBFProperties(t *testing.T) {
	k := Kernel{Type: RBF, Gamma: 0.7}
	x := []float64{1, 2}
	if got := k.Eval(x, x); got != 1 {
		t.Errorf("K(x,x) = %v, want 1", got)
	}
	near := k.Eval(x, []float64{1.1, 2})
	far := k.Eval(x, []float64{5, 9})
	if !(near > far && far > 0 && near < 1) {
		t.Errorf("RBF decay violated: near %v far %v", near, far)
	}
}

func TestPolynomialKernel(t *testing.T) {
	k := Kernel{Type: Polynomial, Gamma: 2, Coef0: 1, Degree: 2}
	// (2*(1*1+0*0)+1)^2 = 9
	if got := k.Eval([]float64{1, 0}, []float64{1, 0}); got != 9 {
		t.Errorf("poly = %v, want 9", got)
	}
}

func TestSigmoidKernel(t *testing.T) {
	k := Kernel{Type: Sigmoid, Gamma: 1, Coef0: 0}
	got := k.Eval([]float64{0.5}, []float64{1})
	if want := math.Tanh(0.5); math.Abs(got-want) > 1e-15 {
		t.Errorf("sigmoid = %v, want %v", got, want)
	}
}

func TestKernelSymmetryProperty(t *testing.T) {
	kernels := []Kernel{
		{Type: Linear},
		{Type: RBF, Gamma: 0.3},
		{Type: Polynomial, Gamma: 0.5, Coef0: 1, Degree: 3},
		{Type: Sigmoid, Gamma: 0.2, Coef0: -0.5},
	}
	f := func(a, b [4]float64) bool {
		x, z := a[:], b[:]
		for _, v := range append(x, z...) {
			if math.IsNaN(v) || math.Abs(v) > 1e3 {
				return true
			}
		}
		for _, k := range kernels {
			l, r := k.Eval(x, z), k.Eval(z, x)
			if math.IsNaN(l) || math.Abs(l-r) > 1e-9*math.Max(1, math.Abs(l)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestKernelTypeStringRoundTrip(t *testing.T) {
	for _, kt := range []KernelType{Linear, Polynomial, RBF, Sigmoid} {
		back, err := ParseKernelType(kt.String())
		if err != nil {
			t.Fatal(err)
		}
		if back != kt {
			t.Errorf("round trip %v -> %v", kt, back)
		}
	}
	if _, err := ParseKernelType("bogus"); err == nil {
		t.Error("bogus kernel name should fail")
	}
	if got := KernelType(42).String(); got != "KernelType(42)" {
		t.Errorf("unknown String = %q", got)
	}
}

func TestEvalPanicsOnInvalidType(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Kernel{Type: KernelType(9)}.Eval([]float64{1}, []float64{1})
}
