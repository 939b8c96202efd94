package mathx

import (
	"math"
	"testing"
	"testing/quick"
)

func TestWelfordMatchesBatch(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	var w Welford
	for _, x := range xs {
		w.Add(x)
	}
	if got, want := w.Mean(), Sum(xs)/float64(len(xs)); !almostEqual(got, want, 1e-12) {
		t.Errorf("Mean = %v, want %v", got, want)
	}
}

func TestWelfordZeroValue(t *testing.T) {
	var w Welford
	if w.Mean() != 0 {
		t.Error("zero-value Welford should report zeros")
	}
}

func TestWelfordSingleSample(t *testing.T) {
	var w Welford
	w.Add(42)
	if w.Mean() != 42 {
		t.Errorf("Mean = %v", w.Mean())
	}
}

// Property: streaming result equals batch result for random inputs.
func TestWelfordStreamingEqualsBatchProperty(t *testing.T) {
	f := func(xs []float64) bool {
		clean := xs[:0:0]
		for _, v := range xs {
			if !math.IsNaN(v) && !math.IsInf(v, 0) && math.Abs(v) < 1e8 {
				clean = append(clean, v)
			}
		}
		if len(clean) < 2 {
			return true
		}
		var w Welford
		for _, x := range clean {
			w.Add(x)
		}
		mean, _ := Mean(clean)
		return math.Abs(w.Mean()-mean) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
