// Package timeseries provides the time-indexed sample storage used by the
// telemetry pipeline: an append-only series with optional ring-buffer
// retention, window extraction, resampling, and exponentially-weighted
// smoothing.
//
// Timestamps are simulation seconds (float64) rather than time.Time: the
// simulator runs on a virtual clock, and the paper's equations are all
// expressed in seconds since experiment start.
package timeseries

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Point is a single timestamped sample.
type Point struct {
	T float64 // seconds since experiment start
	V float64 // sample value
}

// ErrOutOfOrder is returned when appending a sample at or before the latest
// timestamp.
var ErrOutOfOrder = errors.New("timeseries: out-of-order append")

// ErrEmptySeries is returned by queries that are undefined on empty series.
var ErrEmptySeries = errors.New("timeseries: empty series")

// Series is a monotonically-timestamped sequence of samples. A Series with
// maxPoints > 0 behaves as a ring buffer, discarding the oldest samples once
// the cap is exceeded; with maxPoints == 0 it grows without bound.
type Series struct {
	pts       []Point
	maxPoints int
	dropped   int
}

// New returns an unbounded Series.
func New() *Series { return &Series{} }

// NewSized returns an unbounded Series with room for n samples before its
// first reallocation.
func NewSized(n int) *Series { return &Series{pts: make([]Point, 0, n)} }

// NewBounded returns a Series retaining at most maxPoints samples.
// It panics if maxPoints < 0.
func NewBounded(maxPoints int) *Series {
	if maxPoints < 0 {
		panic("timeseries: negative capacity")
	}
	return &Series{maxPoints: maxPoints}
}

// Append adds a sample. Timestamps must be strictly increasing.
func (s *Series) Append(t, v float64) error {
	if n := len(s.pts); n > 0 && t <= s.pts[n-1].T {
		return fmt.Errorf("%w: t=%v after t=%v", ErrOutOfOrder, t, s.pts[n-1].T)
	}
	s.pts = append(s.pts, Point{T: t, V: v})
	if s.maxPoints > 0 && len(s.pts) > s.maxPoints {
		over := len(s.pts) - s.maxPoints
		s.pts = append(s.pts[:0], s.pts[over:]...)
		s.dropped += over
	}
	return nil
}

// MustAppend is Append for callers appending from a monotonic clock.
// It panics on out-of-order timestamps.
func (s *Series) MustAppend(t, v float64) {
	if err := s.Append(t, v); err != nil {
		panic(err)
	}
}

// Len returns the number of retained samples.
func (s *Series) Len() int { return len(s.pts) }

// Dropped returns how many samples were evicted by the retention cap.
func (s *Series) Dropped() int { return s.dropped }

// At returns the i-th retained sample.
func (s *Series) At(i int) Point { return s.pts[i] }

// Last returns the most recent sample.
func (s *Series) Last() (Point, error) {
	if len(s.pts) == 0 {
		return Point{}, ErrEmptySeries
	}
	return s.pts[len(s.pts)-1], nil
}

// First returns the oldest retained sample.
func (s *Series) First() (Point, error) {
	if len(s.pts) == 0 {
		return Point{}, ErrEmptySeries
	}
	return s.pts[0], nil
}

// Points returns a copy of the retained samples.
func (s *Series) Points() []Point {
	out := make([]Point, len(s.pts))
	copy(out, s.pts)
	return out
}

// Values returns a copy of the sample values in time order.
func (s *Series) Values() []float64 {
	out := make([]float64, len(s.pts))
	for i, p := range s.pts {
		out[i] = p.V
	}
	return out
}

// Times returns a copy of the timestamps in order.
func (s *Series) Times() []float64 {
	out := make([]float64, len(s.pts))
	for i, p := range s.pts {
		out[i] = p.T
	}
	return out
}

// Window returns the samples with from <= T < to.
func (s *Series) Window(from, to float64) []Point {
	lo := sort.Search(len(s.pts), func(i int) bool { return s.pts[i].T >= from })
	hi := sort.Search(len(s.pts), func(i int) bool { return s.pts[i].T >= to })
	out := make([]Point, hi-lo)
	copy(out, s.pts[lo:hi])
	return out
}

// MeanAfter returns the mean of all samples with T >= from. This implements
// the paper's Eq. (1): ψ_stable is the average temperature after t_break.
func (s *Series) MeanAfter(from float64) (float64, error) {
	var sum float64
	var n int
	lo := sort.Search(len(s.pts), func(i int) bool { return s.pts[i].T >= from })
	for _, p := range s.pts[lo:] {
		sum += p.V
		n++
	}
	if n == 0 {
		return 0, ErrEmptySeries
	}
	return sum / float64(n), nil
}

// ValueAt returns the sample value at time t using linear interpolation
// between the two straddling samples. Outside the sampled range it clamps
// to the nearest endpoint.
func (s *Series) ValueAt(t float64) (float64, error) {
	n := len(s.pts)
	if n == 0 {
		return 0, ErrEmptySeries
	}
	if t <= s.pts[0].T {
		return s.pts[0].V, nil
	}
	if t >= s.pts[n-1].T {
		return s.pts[n-1].V, nil
	}
	hi := sort.Search(n, func(i int) bool { return s.pts[i].T >= t })
	lo := hi - 1
	a, b := s.pts[lo], s.pts[hi]
	frac := (t - a.T) / (b.T - a.T)
	return a.V + frac*(b.V-a.V), nil
}

// Resample returns values sampled at a fixed step over [from, to] inclusive
// using linear interpolation.
func (s *Series) Resample(from, to, step float64) ([]Point, error) {
	if step <= 0 {
		return nil, errors.New("timeseries: non-positive step")
	}
	if to < from {
		return nil, errors.New("timeseries: inverted range")
	}
	if len(s.pts) == 0 {
		return nil, ErrEmptySeries
	}
	var out []Point
	// Guard against float drift producing an extra step.
	for t := from; t <= to+step*1e-9; t += step {
		v, err := s.ValueAt(t)
		if err != nil {
			return nil, err
		}
		out = append(out, Point{T: t, V: v})
	}
	return out, nil
}

// EWMA returns a new unbounded series holding the exponentially-weighted
// moving average of s with smoothing factor alpha in (0, 1].
func (s *Series) EWMA(alpha float64) (*Series, error) {
	if alpha <= 0 || alpha > 1 {
		return nil, errors.New("timeseries: alpha out of (0,1]")
	}
	out := New()
	var acc float64
	for i, p := range s.pts {
		if i == 0 {
			acc = p.V
		} else {
			acc = alpha*p.V + (1-alpha)*acc
		}
		out.MustAppend(p.T, acc)
	}
	return out, nil
}

// Stable reports whether the most recent window of duration win spans a
// value range of at most tol. It is the detector behind "temperature will
// first experience variation and subsequently stability".
func (s *Series) Stable(win, tol float64) bool {
	if len(s.pts) == 0 {
		return false
	}
	last := s.pts[len(s.pts)-1].T
	w := s.Window(last-win, last+1)
	if len(w) < 2 {
		return false
	}
	lo, hi := w[0].V, w[0].V
	for _, p := range w[1:] {
		lo = math.Min(lo, p.V)
		hi = math.Max(hi, p.V)
	}
	return hi-lo <= tol
}

// Clone returns a deep copy of s.
func (s *Series) Clone() *Series {
	c := &Series{maxPoints: s.maxPoints, dropped: s.dropped}
	c.pts = make([]Point, len(s.pts))
	copy(c.pts, s.pts)
	return c
}
