// Package workload generates the heterogeneous, time-varying load the
// paper's experiments run: per-task load profiles (constant, step, ramp,
// sine, bursty, trace) and randomized experiment cases with 2–12 VMs per
// host, mixed task classes, varying fan counts and environment temperatures
// ("Numerous experiments were conducted under different scenarios").
package workload

import (
	"bytes"
	"encoding/csv"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
)

// Profile gives a task's CPU demand fraction (of one vCPU) at time t
// seconds. Implementations must return values in [0, 1] for t >= 0.
type Profile interface {
	// At returns the demand fraction at time t.
	At(t float64) float64
}

// Constant is a fixed load level.
type Constant struct {
	Level float64
}

// At implements Profile.
func (c Constant) At(float64) float64 { return clamp01(c.Level) }

// Step switches from Before to After at time SwitchAt.
type Step struct {
	Before, After float64
	SwitchAt      float64
}

// At implements Profile.
func (s Step) At(t float64) float64 {
	if t < s.SwitchAt {
		return clamp01(s.Before)
	}
	return clamp01(s.After)
}

// Ramp linearly interpolates From→To over [Start, Start+Duration].
type Ramp struct {
	From, To        float64
	Start, Duration float64
}

// At implements Profile.
func (r Ramp) At(t float64) float64 {
	switch {
	case t <= r.Start:
		return clamp01(r.From)
	case r.Duration <= 0 || t >= r.Start+r.Duration:
		return clamp01(r.To)
	default:
		frac := (t - r.Start) / r.Duration
		return clamp01(r.From + frac*(r.To-r.From))
	}
}

// Sine oscillates around Base with the given Amplitude and Period.
type Sine struct {
	Base, Amplitude float64
	Period          float64
	Phase           float64
}

// At implements Profile.
func (s Sine) At(t float64) float64 {
	if s.Period <= 0 {
		return clamp01(s.Base)
	}
	return clamp01(s.Base + s.Amplitude*math.Sin(2*math.Pi*t/s.Period+s.Phase))
}

// Bursty is a square wave: High for DutyCycle of each Period, Low otherwise.
type Bursty struct {
	Low, High float64
	Period    float64
	DutyCycle float64 // fraction of the period spent at High, in (0,1)
}

// At implements Profile.
func (b Bursty) At(t float64) float64 {
	if b.Period <= 0 {
		return clamp01(b.Low)
	}
	pos := modPeriod(t, b.Period) / b.Period
	if pos < clamp01(b.DutyCycle) {
		return clamp01(b.High)
	}
	return clamp01(b.Low)
}

// modPeriod returns math.Mod(t, p) for p > 0, bit for bit, without
// math.Mod's loop over the exponent difference where the quotient is
// small. For finite t > 0 and finite p with
// t < p·2^52, q = Trunc(t/p) is the whole quotient or one above it (t/p
// rounds, but never below an integer it exceeds), so t − q·p lies in
// [−p, p) and is representable: the fused multiply-add computes it without
// rounding, and adding p to a negative remainder is exact too.
// Everything else, −0 included, is left to math.Mod.
func modPeriod(t, p float64) float64 {
	if !(t > 0 && p <= math.MaxFloat64 && t < p*(1<<52)) {
		return math.Mod(t, p)
	}
	q := math.Trunc(t / p)
	r := math.FMA(-q, p, t)
	if r < 0 { // q was one above the quotient
		r += p
	}
	return r
}

// TracePoint is one sample of a recorded load trace.
type TracePoint struct {
	T float64
	V float64
}

// Trace replays a recorded profile with linear interpolation, clamping to
// the endpoints outside the recorded range.
type Trace struct {
	points []TracePoint
}

// NewTrace builds a trace profile from samples sorted by time.
func NewTrace(points []TracePoint) (*Trace, error) {
	if len(points) == 0 {
		return nil, errors.New("workload: empty trace")
	}
	for i := 1; i < len(points); i++ {
		if points[i].T <= points[i-1].T {
			return nil, fmt.Errorf("workload: trace not strictly increasing at %d", i)
		}
	}
	cp := make([]TracePoint, len(points))
	copy(cp, points)
	return &Trace{points: cp}, nil
}

// GobEncode implements encoding/gob.GobEncoder: a Trace serializes as its
// sample points, so a checkpointed pending placement carrying trace-driven
// tasks survives a control-plane restart intact.
func (tr *Trace) GobEncode() ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(tr.points); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// GobDecode implements encoding/gob.GobDecoder, revalidating the points the
// way NewTrace does — a corrupt byte stream must not yield a Trace that
// panics later.
func (tr *Trace) GobDecode(b []byte) error {
	var pts []TracePoint
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&pts); err != nil {
		return err
	}
	nt, err := NewTrace(pts)
	if err != nil {
		return err
	}
	*tr = *nt
	return nil
}

// At implements Profile.
func (tr *Trace) At(t float64) float64 {
	pts := tr.points
	n := len(pts)
	if t <= pts[0].T {
		return clamp01(pts[0].V)
	}
	if t >= pts[n-1].T {
		return clamp01(pts[n-1].V)
	}
	hi := sort.Search(n, func(i int) bool { return pts[i].T >= t })
	lo := hi - 1
	frac := (t - pts[lo].T) / (pts[hi].T - pts[lo].T)
	return clamp01(pts[lo].V + frac*(pts[hi].V-pts[lo].V))
}

// TraceFromCSV reads a two-column CSV (t_seconds, demand_fraction) into a
// Trace profile, so recorded production utilization can drive simulated
// tasks. A header row is detected and skipped if the first field does not
// parse as a number.
func TraceFromCSV(r io.Reader) (*Trace, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = 2
	var points []TracePoint
	for line := 1; ; line++ {
		row, err := cr.Read()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("workload: trace csv line %d: %w", line, err)
		}
		t, err := strconv.ParseFloat(row[0], 64)
		if err != nil {
			if line == 1 {
				continue // header
			}
			return nil, fmt.Errorf("workload: trace csv line %d time: %w", line, err)
		}
		v, err := strconv.ParseFloat(row[1], 64)
		if err != nil {
			return nil, fmt.Errorf("workload: trace csv line %d value: %w", line, err)
		}
		points = append(points, TracePoint{T: t, V: v})
	}
	return NewTrace(points)
}

// MeanOver numerically averages a profile over [from, to] with the given
// sampling step; used to derive expected utilization of a scenario.
func MeanOver(p Profile, from, to, step float64) (float64, error) {
	if p == nil {
		return 0, errors.New("workload: nil profile")
	}
	if step <= 0 || to <= from {
		return 0, fmt.Errorf("workload: bad range [%v, %v] step %v", from, to, step)
	}
	var sum float64
	var n int
	for t := from; t <= to; t += step {
		sum += p.At(t)
		n++
	}
	return sum / float64(n), nil
}

func clamp01(x float64) float64 {
	// NaN (e.g. a Sine evaluated at astronomically large t where the phase
	// computation overflows) degrades to zero load rather than poisoning the
	// simulation.
	if math.IsNaN(x) {
		return 0
	}
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}
