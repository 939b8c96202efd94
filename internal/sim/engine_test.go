package sim

import (
	"errors"
	"math"
	"strings"
	"testing"
)

func TestRunOrdersEventsByTime(t *testing.T) {
	e := NewEngine()
	var order []string
	add := func(name string) Handler {
		return func(*Engine) { order = append(order, name) }
	}
	if err := e.Schedule(3, "c", add("c")); err != nil {
		t.Fatal(err)
	}
	if err := e.Schedule(1, "a", add("a")); err != nil {
		t.Fatal(err)
	}
	if err := e.Schedule(2, "b", add("b")); err != nil {
		t.Fatal(err)
	}
	n, err := e.RunUntil(10)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Errorf("executed %d events, want 3", n)
	}
	if got := order[0] + order[1] + order[2]; got != "abc" {
		t.Errorf("order = %v", order)
	}
	if e.Now() != 10 {
		t.Errorf("clock = %v, want horizon 10", e.Now())
	}
}

func TestTieBreakIsInsertionOrder(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 50; i++ {
		i := i
		if err := e.Schedule(5, "tie", func(*Engine) { order = append(order, i) }); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.RunUntil(6); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("tie order[%d] = %d; same-time events must run in insertion order", i, v)
		}
	}
}

func TestSchedulePastRejected(t *testing.T) {
	e := NewEngine()
	if err := e.Schedule(5, "x", func(*Engine) {}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.RunUntil(10); err != nil {
		t.Fatal(err)
	}
	if err := e.Schedule(3, "late", func(*Engine) {}); err == nil {
		t.Fatal("scheduling in the past should fail")
	}
}

func TestScheduleInvalidTime(t *testing.T) {
	e := NewEngine()
	bad := []float64{nan(), inf()}
	for _, at := range bad {
		if err := e.Schedule(at, "bad", func(*Engine) {}); err == nil {
			t.Errorf("Schedule(%v) should fail", at)
		}
	}
}

func TestScheduleAfterNegative(t *testing.T) {
	e := NewEngine()
	if err := e.ScheduleAfter(-1, "x", func(*Engine) {}); err == nil {
		t.Fatal("negative delay should fail")
	}
}

func TestHorizonStopsBeforeLaterEvents(t *testing.T) {
	e := NewEngine()
	ran := false
	if err := e.Schedule(100, "far", func(*Engine) { ran = true }); err != nil {
		t.Fatal(err)
	}
	n, err := e.RunUntil(50)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 || ran {
		t.Error("event beyond horizon must not run")
	}
	if e.Now() != 50 {
		t.Errorf("clock = %v, want 50", e.Now())
	}
	if e.Pending() != 1 {
		t.Errorf("pending = %d, want 1", e.Pending())
	}
	// The event still fires on a later run.
	if _, err := e.RunUntil(150); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Error("deferred event never ran")
	}
}

func TestRunUntilRequiresFutureHorizon(t *testing.T) {
	e := NewEngine()
	if _, err := e.RunUntil(0); !errors.Is(err, ErrDeadlineRequired) {
		t.Errorf("err = %v, want ErrDeadlineRequired", err)
	}
}

func TestEveryPeriodicAndCancel(t *testing.T) {
	e := NewEngine()
	count := 0
	stop, err := e.Every(10, "tick", func(en *Engine) {
		count++
		if count == 3 {
			// Cancel from inside the handler after the third tick.
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.RunUntil(25); err != nil {
		t.Fatal(err)
	}
	// Ticks at t=0, 10, 20.
	if count != 3 {
		t.Errorf("ticks = %d, want 3", count)
	}
	stop()
	if _, err := e.RunUntil(100); err != nil {
		t.Fatal(err)
	}
	if count != 3 {
		t.Errorf("ticks after stop = %d, want 3", count)
	}
}

func TestEveryInvalidPeriod(t *testing.T) {
	late := NewEngine()
	if _, err := late.RunUntil(1 << 60); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		e      *Engine
		period float64
	}{
		{"zero", NewEngine(), 0},
		{"negative", NewEngine(), -1},
		{"NaN", NewEngine(), nan()},
		{"+Inf", NewEngine(), inf()},
		{"-Inf", NewEngine(), -inf()},
		{"below the clock's ulp", late, 1},
	} {
		if _, err := c.e.Every(c.period, "bad", func(*Engine) {}); err == nil || !strings.Contains(err.Error(), "period") {
			t.Errorf("%s: Every(%v) at %v = %v, want the period refused", c.name, c.period, c.e.Now(), err)
		}
		if c.e.Pending() != 0 {
			t.Errorf("%s: a refused Every left %d events queued", c.name, c.e.Pending())
		}
	}
}

// TestEveryStopsWhenThePeriodStopsAdvancing: a period that advanced the
// clock when registered but no longer does (the clock outgrew its
// precision) stops the run with an error instead of re-firing at the same
// instant forever.
func TestEveryStopsWhenThePeriodStopsAdvancing(t *testing.T) {
	e := NewEngine()
	const edge = 1 << 53 // above it, now+1 rounds back to now
	if _, err := e.RunUntil(edge - 4); err != nil {
		t.Fatal(err)
	}
	fired := 0
	if _, err := e.Every(1, "tick", func(*Engine) { fired++ }); err != nil {
		t.Fatal(err)
	}
	n, err := e.RunUntil(edge + 100)
	if err == nil || !strings.Contains(err.Error(), "does not advance") {
		t.Fatalf("RunUntil = %d, %v; want the stalled period reported", n, err)
	}
	if n != 5 || fired != 5 {
		t.Errorf("ran %d events, %d ticks; want 5 (edge-4 … edge)", n, fired)
	}
	// The fault is reported once; the engine runs on without the tick.
	if _, err := e.RunUntil(edge + 200); err != nil {
		t.Errorf("second RunUntil = %v", err)
	}
}

func TestRunUntilRejectsNonFiniteHorizon(t *testing.T) {
	for _, h := range []float64{nan(), inf(), -inf()} {
		e := NewEngine()
		if _, err := e.Every(1, "tick", func(*Engine) {}); err != nil {
			t.Fatal(err)
		}
		if n, err := e.RunUntil(h); !errors.Is(err, ErrDeadlineRequired) || n != 0 {
			t.Errorf("RunUntil(%v) = %d, %v; want ErrDeadlineRequired", h, n, err)
		}
	}
}

func TestStopHaltsLoop(t *testing.T) {
	e := NewEngine()
	count := 0
	for i := 1; i <= 10; i++ {
		i := i
		if err := e.Schedule(float64(i), "n", func(en *Engine) {
			count++
			if i == 4 {
				en.Stop()
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	n, err := e.RunUntil(100)
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 || count != 4 {
		t.Errorf("executed %d/%d, want 4", n, count)
	}
	// A fresh RunUntil resumes with remaining events.
	n, err = e.RunUntil(200)
	if err != nil {
		t.Fatal(err)
	}
	if n != 6 {
		t.Errorf("resumed run executed %d, want 6", n)
	}
}

func TestHandlerSchedulesMoreEvents(t *testing.T) {
	e := NewEngine()
	depth := 0
	var recurse Handler
	recurse = func(en *Engine) {
		depth++
		if depth < 5 {
			if err := en.ScheduleAfter(1, "r", recurse); err != nil {
				t.Error(err)
			}
		}
	}
	if err := e.Schedule(0, "r", recurse); err != nil {
		t.Fatal(err)
	}
	if _, err := e.RunUntil(100); err != nil {
		t.Fatal(err)
	}
	if depth != 5 {
		t.Errorf("depth = %d, want 5", depth)
	}
}

func nan() float64 { return math.NaN() }

func inf() float64 { return math.Inf(1) }
