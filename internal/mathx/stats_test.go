package mathx

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestMean(t *testing.T) {
	tests := []struct {
		name string
		in   []float64
		want float64
	}{
		{"single", []float64{4}, 4},
		{"pair", []float64{2, 4}, 3},
		{"negative", []float64{-1, 1}, 0},
		{"fractional", []float64{1, 2, 2}, 5.0 / 3},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := Mean(tt.in)
			if err != nil {
				t.Fatal(err)
			}
			if !almostEqual(got, tt.want, 1e-12) {
				t.Errorf("Mean(%v) = %v, want %v", tt.in, got, tt.want)
			}
		})
	}
}

func TestMeanEmpty(t *testing.T) {
	if _, err := Mean(nil); !errors.Is(err, ErrEmpty) {
		t.Fatalf("Mean(nil) err = %v, want ErrEmpty", err)
	}
}

func TestMSE(t *testing.T) {
	got, err := MSE([]float64{1, 2, 3}, []float64{1, 3, 5})
	if err != nil {
		t.Fatal(err)
	}
	if want := (0.0 + 1 + 4) / 3; !almostEqual(got, want, 1e-12) {
		t.Errorf("MSE = %v, want %v", got, want)
	}
}

func TestMSEErrors(t *testing.T) {
	if _, err := MSE([]float64{1}, []float64{1, 2}); !errors.Is(err, ErrLengthMismatch) {
		t.Errorf("mismatch err = %v", err)
	}
	if _, err := MSE(nil, nil); !errors.Is(err, ErrEmpty) {
		t.Errorf("empty err = %v", err)
	}
}

func TestMAE(t *testing.T) {
	got, err := MAE([]float64{1, -2}, []float64{-1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if want := 3.0; got != want {
		t.Errorf("MAE = %v, want %v", got, want)
	}
}

// Property: MSE is non-negative and zero iff pred == actual.
func TestMSENonNegativeProperty(t *testing.T) {
	f := func(pairs []float64) bool {
		if len(pairs) < 2 {
			return true
		}
		n := len(pairs) / 2
		pred, actual := pairs[:n], pairs[n:2*n]
		for _, v := range append(pred, actual...) {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
		}
		mse, err := MSE(pred, actual)
		if err != nil {
			return false
		}
		return mse >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }
