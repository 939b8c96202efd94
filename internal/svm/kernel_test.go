package svm

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestKernelValidate(t *testing.T) {
	tests := []struct {
		name string
		k    Kernel
		ok   bool
	}{
		{"rbf ok", Kernel{Gamma: 0.5}, true},
		{"rbf zero gamma", Kernel{}, false},
		{"rbf negative gamma", Kernel{Gamma: -1}, false},
		{"rbf nan gamma", Kernel{Gamma: math.NaN()}, false},
		{"rbf inf gamma", Kernel{Gamma: math.Inf(1)}, false},
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

func TestRBFProperties(t *testing.T) {
	k := Kernel{Gamma: 0.7}
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

func TestKernelSymmetryProperty(t *testing.T) {
	kernels := []Kernel{{Gamma: 0.3}, {Gamma: 4}}
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

// TestKernelTypeStringRoundTrip: a model file names its kernel "rbf", and
// ReadModel loads only that name — a file naming any other family, or none,
// is refused by name rather than read as RBF.
func TestKernelTypeStringRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteModel(&buf, &Model{Kernel: Kernel{Gamma: 0.5}, SV: [][]float64{{1}}, Coef: []float64{1}, Dim: 1}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "\nkernel_type rbf\n") {
		t.Fatalf("model file does not name its kernel rbf:\n%s", buf.String())
	}
	if m, err := ReadModel(bytes.NewReader(buf.Bytes())); err != nil || m.Kernel.Gamma != 0.5 {
		t.Fatalf("round trip: %+v, %v", m, err)
	}
	for _, name := range []string{"linear", "polynomial", "sigmoid", "RBF", ""} {
		line := "kernel_type " + name + "\n"
		if name == "" {
			line = "" // no kernel_type line at all
		}
		text := strings.Replace(buf.String(), "kernel_type rbf\n", line, 1)
		if _, err := ReadModel(strings.NewReader(text)); err == nil || !strings.Contains(err.Error(), `kernel_type "`+name+`"`) {
			t.Errorf("kernel_type %q: ReadModel = %v, want a refusal naming it", name, err)
		}
	}
}
