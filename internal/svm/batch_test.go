package svm

import (
	"math"
	"math/rand"
	"testing"
)

func TestExpNegMatchesMathExp(t *testing.T) {
	worst := 0.0
	for x := 0.0; x < 700; x += 0.0013 {
		got, want := expNeg(x), math.Exp(-x)
		if want == 0 {
			continue
		}
		if rel := math.Abs(got-want) / want; rel > worst {
			worst = rel
		}
	}
	if worst > 1e-13 {
		t.Fatalf("worst relative error %g, want <= 1e-13", worst)
	}
}

func TestExpNegEdgeCases(t *testing.T) {
	if got := expNeg(0); got != 1 {
		t.Errorf("expNeg(0) = %v, want 1", got)
	}
	if got := expNeg(1000); got != 0 {
		t.Errorf("expNeg(1000) = %v, want 0", got)
	}
	if got := expNeg(-2); math.Abs(got-math.Exp(2)) > 1e-12*math.Exp(2) {
		t.Errorf("expNeg(-2) = %v, want e^2", got)
	}
	if got := expNeg(math.NaN()); !math.IsNaN(got) {
		t.Errorf("expNeg(NaN) = %v, want NaN", got)
	}
}

// trainTinyModel fits an RBF SVR on a smooth 2-D function.
func trainTinyModel(t *testing.T, n int) (*Model, [][]float64) {
	t.Helper()
	r := rand.New(rand.NewSource(7))
	x := make([][]float64, n)
	z := make([]float64, n)
	for i := range x {
		a, b := r.Float64()*2-1, r.Float64()*2-1
		x[i] = []float64{a, b}
		z[i] = math.Sin(2*a) + b*b
	}
	m, err := Train(x, z, TrainParams{
		Kernel:  Kernel{Gamma: 0.5},
		C:       10,
		Epsilon: 0.01,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m, x
}

// evalReference is f(x) = Σ Coef·K(SV, x) − Rho through Kernel.Eval
// (math.Exp for RBF): the textbook evaluation the batch kernel's
// table-driven exponential is held to.
func evalReference(m *Model, x []float64) float64 {
	var sum float64
	for i, sv := range m.SV {
		sum += m.Coef[i] * m.Kernel.Eval(sv, x)
	}
	return sum - m.Rho
}

// TestPredictBatchMatchesPredict: Predict is one row of the batch kernel, so
// the two entry points agree bit for bit, and both stay within 1e-9 of the
// Kernel.Eval reference.
func TestPredictBatchMatchesPredict(t *testing.T) {
	m, x := trainTinyModel(t, 60)
	got, err := m.PredictBatch(x)
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range x {
		single, err := m.Predict(row)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(single) != math.Float64bits(got[i]) {
			t.Errorf("row %d: batch %v vs single %v differ in their bits", i, got[i], single)
		}
		if want := evalReference(m, row); math.Abs(got[i]-want) > 1e-9 {
			t.Errorf("row %d: batch %v vs reference %v", i, got[i], want)
		}
	}
}

func TestPredictBatchOddSVCounts(t *testing.T) {
	// Exercise the <4 remainder loop of the blocked distance pass by
	// truncating the SV set to lengths around the unroll factor.
	m, x := trainTinyModel(t, 40)
	for _, nsv := range []int{1, 2, 3, 4, 5, 7} {
		if m.NumSV() < nsv {
			t.Skipf("only %d SVs", m.NumSV())
		}
		sub := &Model{
			Kernel: m.Kernel,
			SV:     m.SV[:nsv],
			Coef:   m.Coef[:nsv],
			Rho:    m.Rho,
			Dim:    m.Dim,
		}
		got, err := sub.PredictBatch(x[:8])
		if err != nil {
			t.Fatal(err)
		}
		for i, row := range x[:8] {
			if want := evalReference(sub, row); math.Abs(got[i]-want) > 1e-9 {
				t.Errorf("nsv=%d row %d: batch %v vs reference %v", nsv, i, got[i], want)
			}
		}
	}
}

func TestPredictBatchEmptyAndErrors(t *testing.T) {
	m, _ := trainTinyModel(t, 20)
	out, err := m.PredictBatch(nil)
	if err != nil || len(out) != 0 {
		t.Errorf("empty batch: out=%v err=%v", out, err)
	}
	if _, err := m.PredictBatch([][]float64{{1, 2}, {1}}); err == nil {
		t.Error("ragged batch accepted")
	}
}

func TestTransformIntoMatchesTransform(t *testing.T) {
	s, err := NewScaler(-1, 1)
	if err != nil {
		t.Fatal(err)
	}
	data := [][]float64{{0, 10, 5}, {4, 20, 5}, {2, 15, 5}}
	if err := s.Fit(data); err != nil {
		t.Fatal(err)
	}
	dst := make([]float64, 3)
	for _, row := range data {
		want, err := s.Transform(row)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.TransformInto(row, dst); err != nil {
			t.Fatal(err)
		}
		for j := range dst {
			if dst[j] != want[j] {
				t.Errorf("feature %d: into %v vs alloc %v", j, dst[j], want[j])
			}
		}
	}
	// Constant feature maps to midpoint.
	if err := s.TransformInto(data[0], dst); err != nil {
		t.Fatal(err)
	}
	if dst[2] != 0 {
		t.Errorf("constant feature = %v, want midpoint 0", dst[2])
	}
	// Dst length mismatch is an error.
	if err := s.TransformInto(data[0], make([]float64, 2)); err == nil {
		t.Error("short dst accepted")
	}
}
