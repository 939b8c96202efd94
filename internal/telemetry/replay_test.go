package telemetry

import (
	"math"
	"strings"
	"testing"
)

func testTrace() []Reading {
	var rs []Reading
	for i := 0; i < 12; i++ {
		at := 100 + float64(i)*5 // recorded mid-run: starts at t=100, every 5 s
		rs = append(rs,
			Reading{HostID: "h0", AtS: at, TempC: 40 + float64(i), Util: 0.5},
			Reading{HostID: "h1", AtS: at, TempC: 35, Util: 0.2},
		)
	}
	return rs
}

func TestTraceSourceValidation(t *testing.T) {
	if _, err := NewTraceSource(nil, TraceOptions{}); err == nil {
		t.Error("empty trace accepted")
	}
	if _, err := NewTraceSource([]Reading{{HostID: "a", AtS: 5}, {HostID: "a", AtS: 1}}, TraceOptions{}); err == nil {
		t.Error("unordered trace accepted")
	}
	if _, err := NewTraceSource([]Reading{{AtS: 1}}, TraceOptions{}); err == nil {
		t.Error("reading without host id accepted")
	}
	if _, err := NewTraceSource(testTrace(), TraceOptions{Speed: -1}); err == nil {
		t.Error("negative speed accepted")
	}
	if _, err := NewTraceSource([]Reading{{HostID: "a", AtS: math.NaN()}}, TraceOptions{}); err == nil {
		t.Error("NaN timestamp accepted")
	}
}

// TestLoopingTraceNeedsARealPeriod: Advance replays a looping trace
// dt/period times per call under the round lock, so two readings 1e-9 s apart
// (predictd's default is -loop) used to hold round 1 — and the daemon, which
// checks for SIGTERM between rounds — forever; at 1e-300 s the cycle offset
// did not even advance. Such a trace is refused at construction, by period;
// unlooped it replays once and returns.
func TestLoopingTraceNeedsARealPeriod(t *testing.T) {
	for _, gap := range []float64{1e-9, 1e-300} {
		trace := []Reading{{HostID: "a", AtS: 0, TempC: 40}, {HostID: "b", AtS: gap, TempC: 41}}
		_, err := NewTraceSource(trace, TraceOptions{Loop: true})
		if err == nil || !strings.Contains(err.Error(), "period") {
			t.Errorf("looping trace spanning %gs: %v, want an error naming its period", gap, err)
		}
		src, err := NewTraceSource(trace, TraceOptions{})
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		if err := src.Advance(15, func(Reading) bool { n++; return true }); err != nil {
			t.Fatal(err)
		}
		if n != 2 || !src.Done() {
			t.Errorf("unlooped trace spanning %gs: %d readings, done %v", gap, n, src.Done())
		}
	}
	// A single-tick trace keeps its one-second cycle.
	if _, err := NewTraceSource([]Reading{{HostID: "a", AtS: 7}}, TraceOptions{Loop: true}); err != nil {
		t.Errorf("single-tick looping trace: %v", err)
	}
}

// TestTraceSourceWindows: each Advance emits exactly the readings in its
// window, with timestamps re-zeroed to the first reading.
func TestTraceSourceWindows(t *testing.T) {
	src, err := NewTraceSource(testTrace(), TraceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if src.Name() != "trace" {
		t.Fatalf("name = %q", src.Name())
	}
	var got []Reading
	emit := func(r Reading) bool { got = append(got, r); return true }

	// Window (0, 15]: re-zeroed sample times 0, 5, 10, 15 → 4 ticks × 2 hosts.
	if err := src.Advance(15, emit); err != nil {
		t.Fatal(err)
	}
	if len(got) != 8 {
		t.Fatalf("first window emitted %d readings, want 8", len(got))
	}
	if got[0].AtS != 0 || got[0].TempC != 40 {
		t.Fatalf("first reading not re-zeroed: %+v", got[0])
	}
	if src.NowS() != 15 {
		t.Fatalf("clock = %v, want 15", src.NowS())
	}

	// Next window (15, 30]: times 20, 25, 30 → 6 readings.
	got = got[:0]
	if err := src.Advance(15, emit); err != nil {
		t.Fatal(err)
	}
	if len(got) != 6 {
		t.Fatalf("second window emitted %d readings, want 6", len(got))
	}
	for _, r := range got {
		if r.AtS <= 15 || r.AtS > 30 {
			t.Fatalf("reading outside window: %+v", r)
		}
	}

	// Drain the rest; the source must then be Done and keep emitting nothing.
	got = got[:0]
	if err := src.Advance(1000, emit); err != nil {
		t.Fatal(err)
	}
	if !src.Done() {
		t.Fatal("exhausted trace not Done")
	}
	got = got[:0]
	if err := src.Advance(15, emit); err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("exhausted trace emitted %d readings", len(got))
	}
}

// TestTraceSourceDeterminism: two sources over the same trace emit
// identical streams regardless of how Advance is sliced.
func TestTraceSourceDeterminism(t *testing.T) {
	run := func(steps []float64) []Reading {
		src, err := NewTraceSource(testTrace(), TraceOptions{})
		if err != nil {
			t.Fatal(err)
		}
		var got []Reading
		for _, dt := range steps {
			if err := src.Advance(dt, func(r Reading) bool { got = append(got, r); return true }); err != nil {
				t.Fatal(err)
			}
		}
		return got
	}
	a := run([]float64{15, 15, 15, 15})
	b := run([]float64{5, 10, 15, 7, 8, 15})
	if len(a) != len(b) {
		t.Fatalf("stream lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("reading %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// TestTraceSourceLoop: a looping source restarts with shifted timestamps
// and is never Done.
func TestTraceSourceLoop(t *testing.T) {
	src, err := NewTraceSource(testTrace(), TraceOptions{Loop: true, Speed: 10})
	if err != nil {
		t.Fatal(err)
	}
	if src.Speed() != 10 {
		t.Fatalf("speed = %v", src.Speed())
	}
	var got []Reading
	// The trace spans 55 s (+5 s period tail = 60): two full cycles.
	if err := src.Advance(120, func(r Reading) bool { got = append(got, r); return true }); err != nil {
		t.Fatal(err)
	}
	if src.Done() {
		t.Fatal("looping source reported Done")
	}
	if len(got) != 2*24+2 { // cycle at t=60..115 plus the third cycle's t=120 tick
		t.Fatalf("looped stream has %d readings", len(got))
	}
	last := got[len(got)-1]
	if last.AtS != 120 {
		t.Fatalf("last looped reading at %v, want 120", last.AtS)
	}
	for i := 1; i < len(got); i++ {
		if got[i].AtS < got[i-1].AtS {
			t.Fatalf("looped stream went backwards at %d: %v after %v", i, got[i].AtS, got[i-1].AtS)
		}
	}
}
