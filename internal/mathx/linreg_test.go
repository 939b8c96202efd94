package mathx

import (
	"math"
	"testing"
)

// TestFitMultiLinearExact: λ = 0 is ordinary least squares, exact on a
// noiseless plane.
func TestFitMultiLinearExact(t *testing.T) {
	// y = 1 + 2a - 3b
	features := [][]float64{
		{0, 0}, {1, 0}, {0, 1}, {1, 1}, {2, 3}, {4, 1},
	}
	ys := make([]float64, len(features))
	for i, f := range features {
		ys[i] = 1 + 2*f[0] - 3*f[1]
	}
	fit, err := FitRidge(features, ys, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 2, -3}
	for i, c := range want {
		if !almostEqual(fit.Coef[i], c, 1e-8) {
			t.Errorf("Coef[%d] = %v, want %v", i, fit.Coef[i], c)
		}
	}
	if got := fit.At([]float64{5, 5}); !almostEqual(got, 1+10-15, 1e-8) {
		t.Errorf("At = %v", got)
	}
}

// TestFitMultiLinearErrors: what ordinary least squares (λ = 0) refuses.
func TestFitMultiLinearErrors(t *testing.T) {
	if _, err := FitRidge(nil, nil, 0); err == nil {
		t.Error("expected error for empty input")
	}
	if _, err := FitRidge([][]float64{{1}}, []float64{1, 2}, 0); err == nil {
		t.Error("expected error for length mismatch")
	}
	if _, err := FitRidge([][]float64{{1, 2}, {1}}, []float64{1, 2}, 0); err == nil {
		t.Error("expected error for ragged rows")
	}
	if _, err := FitRidge([][]float64{{1, 2}}, []float64{1}, 0); err == nil {
		t.Error("expected error for underdetermined system")
	}
	// Collinear features -> singular normal equations.
	if _, err := FitRidge([][]float64{{1, 2}, {2, 4}, {3, 6}}, []float64{1, 2, 3}, 0); err == nil {
		t.Error("expected error for singular system")
	}
}

func TestSolveGaussianKnownSystem(t *testing.T) {
	a := [][]float64{
		{2, 1, -1},
		{-3, -1, 2},
		{-2, 1, 2},
	}
	b := []float64{8, -11, -3}
	x, err := solveGaussian(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2, 3, -1}
	for i := range want {
		if !almostEqual(x[i], want[i], 1e-9) {
			t.Errorf("x[%d] = %v, want %v", i, x[i], want[i])
		}
	}
}

func TestFitRidgeHandlesCollinearity(t *testing.T) {
	// Feature 2 = 2 × feature 1: singular for OLS, fine for ridge.
	features := [][]float64{{1, 2}, {2, 4}, {3, 6}, {4, 8}}
	ys := []float64{3, 6, 9, 12} // y = 3*x1
	if _, err := FitRidge(features, ys, 0); err == nil {
		t.Fatal("OLS should reject collinear features")
	}
	fit, err := FitRidge(features, ys, 1e-8)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range features {
		if got, want := fit.At(x), 3*x[0]; math.Abs(got-want) > 1e-3 {
			t.Errorf("ridge At(%v) = %v, want %v", x, got, want)
		}
	}
}

func TestFitRidgeMatchesOLSWhenWellPosed(t *testing.T) {
	features := [][]float64{{0, 0}, {1, 0}, {0, 1}, {1, 1}, {2, 3}}
	ys := make([]float64, len(features))
	for i, f := range features {
		ys[i] = 2 + f[0] - 0.5*f[1]
	}
	ols, err := FitRidge(append([][]float64{}, features...), append([]float64{}, ys...), 0)
	if err != nil {
		t.Fatal(err)
	}
	ridge, err := FitRidge(features, ys, 1e-10)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ols.Coef {
		if math.Abs(ols.Coef[i]-ridge.Coef[i]) > 1e-5 {
			t.Errorf("coef %d: ols %v vs ridge %v", i, ols.Coef[i], ridge.Coef[i])
		}
	}
}

func TestFitRidgeValidation(t *testing.T) {
	if _, err := FitRidge(nil, nil, 1e-6); err == nil {
		t.Error("empty should fail")
	}
	if _, err := FitRidge([][]float64{{1}}, []float64{1, 2}, 1e-6); err == nil {
		t.Error("mismatch should fail")
	}
	if _, err := FitRidge([][]float64{{1}, {2}}, []float64{1, 2}, -1e-6); err == nil {
		t.Error("negative lambda should fail")
	}
	if _, err := FitRidge([][]float64{{1}, {2}}, []float64{1, 2}, math.NaN()); err == nil {
		t.Error("NaN lambda should fail")
	}
	if _, err := FitRidge([][]float64{{1, 2}, {1}}, []float64{1, 2}, 1e-6); err == nil {
		t.Error("ragged rows should fail")
	}
}
