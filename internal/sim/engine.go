// Package sim implements a small deterministic discrete-event simulation
// engine: a virtual clock, a priority event queue with stable tie-breaking,
// and periodic processes. The thermal testbed (internal/thermal,
// internal/vmm) runs entirely on this engine, which is what lets the whole
// evaluation execute in milliseconds of wall time and reproduce exactly
// across runs.
//
// The queue is a binary min-heap of event values ordered by (time,
// insertion sequence), so events at the same instant fire in the order
// they were scheduled. Events live in the heap's slice, not behind
// pointers: once the slice has grown to a run's peak depth, scheduling and
// firing allocate nothing, and neither does an Every tick.
package sim

import (
	"errors"
	"fmt"
	"math"
)

// Handler is invoked when its event fires. The handler may schedule further
// events on the engine.
type Handler func(e *Engine)

type event struct {
	at  float64
	seq uint64 // insertion order; breaks ties deterministically
	fn  Handler
}

// before is the queue's order: earlier time first, then earlier insertion.
func (a *event) before(b *event) bool {
	return a.at < b.at || a.at == b.at && a.seq < b.seq
}

// Engine is a discrete-event simulator. The zero value is not usable; create
// one with NewEngine.
type Engine struct {
	now     float64
	queue   []event // binary min-heap under event.before
	nextSeq uint64
	stopped bool
	// fault is the first failure an Every re-arm hit inside the run loop;
	// RunUntil stops and returns it.
	fault error
}

// NewEngine returns an engine with the clock at 0.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current virtual time in seconds.
func (e *Engine) Now() float64 { return e.now }

// Schedule enqueues fn to run at absolute virtual time at. Scheduling in the
// past (before Now) is an error; scheduling exactly at Now is allowed and
// runs after currently-pending events at the same timestamp.
func (e *Engine) Schedule(at float64, name string, fn Handler) error {
	if math.IsNaN(at) || math.IsInf(at, 0) {
		return fmt.Errorf("sim: invalid event time %v", at)
	}
	if at < e.now {
		return fmt.Errorf("sim: schedule %q at %v before now %v", name, at, e.now)
	}
	e.queue = append(e.queue, event{at: at, seq: e.nextSeq, fn: fn})
	e.nextSeq++
	e.up(len(e.queue) - 1)
	return nil
}

// up restores the heap order from slot i towards the root.
func (e *Engine) up(i int) {
	q := e.queue
	ev := q[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !ev.before(&q[parent]) {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = ev
}

// pop removes and returns the earliest event.
func (e *Engine) pop() event {
	q := e.queue
	top := q[0]
	n := len(q) - 1
	last := q[n]
	q[n] = event{} // drop the handler reference
	q = q[:n]
	e.queue = q
	if n == 0 {
		return top
	}
	// Sift last down from the root.
	i := 0
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && q[r].before(&q[child]) {
			child = r
		}
		if !q[child].before(&last) {
			break
		}
		q[i] = q[child]
		i = child
	}
	q[i] = last
	return top
}

// ScheduleAfter enqueues fn to run delay seconds from now.
func (e *Engine) ScheduleAfter(delay float64, name string, fn Handler) error {
	if delay < 0 {
		return fmt.Errorf("sim: negative delay %v for %q", delay, name)
	}
	return e.Schedule(e.now+delay, name, fn)
}

// Every schedules fn to run now and then at a fixed period until the engine
// stops or until fn's registration is cancelled via the returned stop
// function. The period must advance the clock to a finite time; if a later
// re-arm no longer does (the clock has outgrown the period's precision, or
// overflows), the run loop stops and RunUntil returns that error.
func (e *Engine) Every(period float64, name string, fn Handler) (stop func(), err error) {
	if _, err := advance(e.now, period, name); err != nil {
		return nil, err
	}
	cancelled := false
	var tick Handler
	tick = func(en *Engine) {
		if cancelled {
			return
		}
		fn(en)
		next, err := advance(en.now, period, name)
		if err == nil {
			err = en.Schedule(next, name, tick)
		}
		if err != nil {
			en.halt(err)
		}
	}
	if err := e.Schedule(e.now, name, tick); err != nil {
		return nil, err
	}
	return func() { cancelled = true }, nil
}

// advance returns now+period, or an error naming the period when that is
// not a finite time after now: NaN, ±Inf, non-positive periods, and periods
// below the clock's precision at now.
func advance(now, period float64, name string) (float64, error) {
	next := now + period
	if !(next > now) || math.IsInf(next, 1) {
		return 0, fmt.Errorf("sim: period %v for %q does not advance the clock from %v", period, name, now)
	}
	return next, nil
}

// halt records the first fault and stops the run loop.
func (e *Engine) halt(err error) {
	if e.fault == nil {
		e.fault = err
	}
	e.stopped = true
}

// Stop halts the run loop after the current event completes.
func (e *Engine) Stop() { e.stopped = true }

// ErrDeadlineRequired is returned by Run when the horizon is not a finite
// time after the clock.
var ErrDeadlineRequired = errors.New("sim: RunUntil horizon must be finite and > start time")

// RunUntil executes events in timestamp order until the queue is empty, the
// engine is stopped, or the next event would fire after horizon. The clock
// is left at min(horizon, time of last executed event). It returns the
// number of events executed, and the fault of an Every whose re-arm failed.
func (e *Engine) RunUntil(horizon float64) (int, error) {
	if !(horizon > e.now) || math.IsInf(horizon, 1) {
		return 0, ErrDeadlineRequired
	}
	e.stopped = false
	count := 0
	for len(e.queue) > 0 && !e.stopped {
		if e.queue[0].at > horizon {
			break
		}
		next := e.pop()
		e.now = next.at
		next.fn(e)
		count++
	}
	if err := e.fault; err != nil {
		e.fault = nil
		return count, err
	}
	if e.now < horizon {
		e.now = horizon
	}
	return count, nil
}

// Pending returns the number of queued events.
func (e *Engine) Pending() int { return len(e.queue) }
