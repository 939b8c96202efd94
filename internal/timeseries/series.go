// Package timeseries provides the time-indexed sample storage of a traced
// run: an append-only series, the mean after a time (the paper's Eq. (1)),
// and linear interpolation between samples.
//
// Timestamps are simulation seconds (float64) rather than time.Time: the
// simulator runs on a virtual clock, and the paper's equations are all
// expressed in seconds since experiment start.
package timeseries

import (
	"errors"
	"fmt"
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

// Series is a monotonically-timestamped sequence of samples. The zero value
// is an empty series.
type Series struct {
	pts []Point
}

// NewSized returns a Series with room for n samples before its first
// reallocation.
func NewSized(n int) *Series { return &Series{pts: make([]Point, 0, n)} }

// Append adds a sample. Timestamps must be strictly increasing.
func (s *Series) Append(t, v float64) error {
	if n := len(s.pts); n > 0 && t <= s.pts[n-1].T {
		return fmt.Errorf("%w: t=%v after t=%v", ErrOutOfOrder, t, s.pts[n-1].T)
	}
	s.pts = append(s.pts, Point{T: t, V: v})
	return nil
}

// MustAppend is Append for callers appending from a monotonic clock.
// It panics on out-of-order timestamps.
func (s *Series) MustAppend(t, v float64) {
	if err := s.Append(t, v); err != nil {
		panic(err)
	}
}

// Len returns the number of samples.
func (s *Series) Len() int { return len(s.pts) }

// At returns the i-th sample.
func (s *Series) At(i int) Point { return s.pts[i] }

// Last returns the most recent sample.
func (s *Series) Last() (Point, error) {
	if len(s.pts) == 0 {
		return Point{}, ErrEmptySeries
	}
	return s.pts[len(s.pts)-1], nil
}

// First returns the oldest sample.
func (s *Series) First() (Point, error) {
	if len(s.pts) == 0 {
		return Point{}, ErrEmptySeries
	}
	return s.pts[0], nil
}

// Points returns a copy of the samples.
func (s *Series) Points() []Point {
	out := make([]Point, len(s.pts))
	copy(out, s.pts)
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
