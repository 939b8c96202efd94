package telemetry

import (
	"errors"
	"fmt"
	"math"
)

// TraceSource replays a recorded telemetry trace deterministically: each
// Advance(dt) emits exactly the readings whose (normalized) timestamps fall
// inside the next dt seconds of trace time, so the same trace always yields
// the same round-by-round telemetry regardless of wall-clock speed — the
// property the golden determinism tests pin. The ThermoSim-style payoff is
// that a recorded experiment (or a production incident capture) becomes a
// first-class workload for the same closed loop that runs the simulator.
type TraceSource struct {
	readings []Reading
	baseS    float64 // first reading's timestamp; trace time is re-zeroed to it
	periodS  float64 // one full trace cycle when looping
	speed    float64
	loop     bool

	idx    int
	cycleS float64 // accumulated loop offset
	nowS   float64
}

// minLoopPeriodS is the shortest cycle a looping trace may have. Advance
// replays the whole trace dt/period times per call, under the controller's
// round lock, so a cycle of nanoseconds (two readings 1e-9 s apart) never
// finishes one Δ_update; a cycle of at least a second replays a trace at
// most Δ_update times per round — work linear in the file the operator
// supplied. One second is also the cycle a single-tick trace is given.
const minLoopPeriodS = 1

// TraceOptions tune replay.
type TraceOptions struct {
	// Speed is the recommended real-time pacing multiplier for drivers that
	// pace rounds (1 = real time, 10 = 10× faster, 0 = unpaced). It does not
	// affect Advance, which is pure trace time.
	Speed float64
	// Loop restarts the trace when it runs out, shifting timestamps by one
	// trace period per cycle — a finite capture becomes an endless workload.
	Loop bool
}

// NewTraceSource builds a replay source over readings, which must be
// non-empty and time-ordered (SortReadings gives the canonical order).
// Timestamps are re-zeroed to the first reading so traces recorded mid-run
// replay from t=0.
func NewTraceSource(readings []Reading, opts TraceOptions) (*TraceSource, error) {
	if len(readings) == 0 {
		return nil, errors.New("telemetry: empty trace")
	}
	if opts.Speed < 0 {
		return nil, fmt.Errorf("telemetry: negative replay speed %v", opts.Speed)
	}
	for i, r := range readings {
		if err := ValidateReading(r); err != nil {
			return nil, fmt.Errorf("telemetry: trace reading %d: %w", i, err)
		}
		// NaN fails every comparison: it would pass the ordering check here
		// and never pass Advance's window check, so a looping replay spins.
		if math.IsNaN(r.AtS) || math.IsInf(r.AtS, 0) {
			return nil, fmt.Errorf("telemetry: trace reading %d has timestamp %v", i, r.AtS)
		}
		if i > 0 && r.AtS < readings[i-1].AtS {
			return nil, fmt.Errorf("telemetry: trace not time-ordered at reading %d (%v after %v)",
				i, r.AtS, readings[i-1].AtS)
		}
	}
	base := readings[0].AtS
	span := readings[len(readings)-1].AtS - base
	// One cycle is the recorded span plus one mean sampling interval (over
	// distinct sample times — many hosts share each tick), so looped
	// replays do not emit the last and first samples at the same instant.
	ticks := 1
	for i := 1; i < len(readings); i++ {
		if readings[i].AtS != readings[i-1].AtS {
			ticks++
		}
	}
	period := span
	if ticks > 1 {
		period += span / float64(ticks-1)
	}
	if period <= 0 {
		period = minLoopPeriodS
	}
	if opts.Loop && period < minLoopPeriodS {
		return nil, fmt.Errorf("telemetry: looping trace has a period of %gs (minimum %gs): it would replay %.3g times per second of trace time",
			period, float64(minLoopPeriodS), 1/period)
	}
	return &TraceSource{
		readings: readings,
		baseS:    base,
		periodS:  period,
		speed:    opts.Speed,
		loop:     opts.Loop,
	}, nil
}

// Name identifies the source kind.
func (s *TraceSource) Name() string { return "trace" }

// NowS reports the trace clock.
func (s *TraceSource) NowS() float64 { return s.nowS }

// Speed reports the recommended pacing multiplier (0 = unpaced).
func (s *TraceSource) Speed() float64 { return s.speed }

// Done reports whether a non-looping trace has been fully replayed.
func (s *TraceSource) Done() bool { return !s.loop && s.idx >= len(s.readings) }

// Advance emits every reading in the next dtS seconds of trace time.
// Advancing past the end of a non-looping trace emits nothing and is not an
// error (check Done); with Loop, the trace restarts with shifted timestamps.
func (s *TraceSource) Advance(dtS float64, emit func(Reading) bool) error {
	if dtS <= 0 {
		return fmt.Errorf("telemetry: trace advance %v must be > 0", dtS)
	}
	end := s.nowS + dtS
	for {
		if s.idx >= len(s.readings) {
			if !s.loop {
				break
			}
			s.idx = 0
			s.cycleS += s.periodS
		}
		r := s.readings[s.idx]
		at := r.AtS - s.baseS + s.cycleS
		if at > end {
			break
		}
		s.idx++
		r.AtS = at
		emit(r) // a dropped reading is the consumer's accounting, not ours
	}
	s.nowS = end
	return nil
}
