package sim

import (
	"container/heap"
	"fmt"
	"math/rand"
	"testing"
)

// refEngine is the reference model of the event queue: the engine as it
// was before its heap held values — one *refEvent per Schedule in a
// container/heap ordered by (at, seq), Every re-arming from its handler.
type refEngine struct {
	now     float64
	queue   refQueue
	nextSeq uint64
	stopped bool
}

type refEvent struct {
	at  float64
	seq uint64
	fn  func(*refEngine)
}

type refQueue []*refEvent

func (q refQueue) Len() int { return len(q) }
func (q refQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q refQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x any)   { *q = append(*q, x.(*refEvent)) }
func (q *refQueue) Pop() any {
	old := *q
	ev := old[len(old)-1]
	*q = old[:len(old)-1]
	return ev
}

func (e *refEngine) schedule(at float64, fn func(*refEngine)) {
	heap.Push(&e.queue, &refEvent{at: at, seq: e.nextSeq, fn: fn})
	e.nextSeq++
}

func (e *refEngine) every(period float64, fn func(*refEngine)) func() {
	cancelled := false
	var tick func(*refEngine)
	tick = func(en *refEngine) {
		if cancelled {
			return
		}
		fn(en)
		en.schedule(en.now+period, tick)
	}
	e.schedule(e.now, tick)
	return func() { cancelled = true }
}

func (e *refEngine) runUntil(horizon float64) int {
	e.stopped = false
	count := 0
	for len(e.queue) > 0 && !e.stopped && e.queue[0].at <= horizon {
		next := heap.Pop(&e.queue).(*refEvent)
		e.now = next.at
		next.fn(e)
		count++
	}
	if e.now < horizon {
		e.now = horizon
	}
	return count
}

// script drives one engine through a seeded random workload: every fired
// event logs its id and time, then — by the script's own generator, so two
// engines that fire in the same order make the same choices — schedules
// children at ties and near offsets, stops the run, cancels an Every, or
// registers a new one.
type script struct {
	rng    *rand.Rand
	log    []string
	stops  []func()
	nextID int
	now    func() float64
	at     func(at float64, id int)
	every  func(period float64, id int) func()
	halt   func()
}

var delays = [...]float64{0, 0, 0.25, 1, 1, 3}
var periods = [...]float64{0.5, 1, 2.5}

func (s *script) fire(id int) {
	s.log = append(s.log, fmt.Sprintf("%d@%v", id, s.now()))
	if s.nextID > 3000 {
		return
	}
	switch r := s.rng.Intn(12); {
	case r < 5:
		for k := s.rng.Intn(3); k >= 0; k-- {
			s.nextID++
			s.at(s.now()+delays[s.rng.Intn(len(delays))], s.nextID)
		}
	case r == 5:
		s.halt()
	case r == 6 && len(s.stops) > 0:
		s.stops[s.rng.Intn(len(s.stops))]()
	case r == 7:
		s.nextID++
		s.stops = append(s.stops, s.every(periods[s.rng.Intn(len(periods))], s.nextID))
	}
}

// TestQueueMatchesContainerHeap is the value heap's differential test: over
// seeded scripts of equal timestamps, handlers that schedule, Stop and
// cancelled Every registrations, the engine fires the same events at the
// same times as the container/heap reference model, run for run.
func TestQueueMatchesContainerHeap(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		e := NewEngine()
		got := &script{rng: rand.New(rand.NewSource(seed)), now: e.Now, halt: e.Stop}
		got.at = func(at float64, id int) {
			if err := e.Schedule(at, "ev", func(*Engine) { got.fire(id) }); err != nil {
				t.Fatal(err)
			}
		}
		got.every = func(period float64, id int) func() {
			stop, err := e.Every(period, "every", func(*Engine) { got.fire(id) })
			if err != nil {
				t.Fatal(err)
			}
			return stop
		}

		r := &refEngine{}
		want := &script{rng: rand.New(rand.NewSource(seed)), now: func() float64 { return r.now }, halt: func() { r.stopped = true }}
		want.at = func(at float64, id int) { r.schedule(at, func(*refEngine) { want.fire(id) }) }
		want.every = func(period float64, id int) func() {
			return r.every(period, func(*refEngine) { want.fire(id) })
		}

		for _, s := range []*script{got, want} {
			for id := 0; id < 8; id++ {
				s.nextID++
				s.at(float64(id%3), s.nextID)
			}
			s.nextID++
			s.stops = append(s.stops, s.every(1, s.nextID))
		}
		for horizon := 5.0; horizon <= 60; horizon += 5 {
			n, err := e.RunUntil(horizon)
			if err != nil {
				t.Fatal(err)
			}
			if m := r.runUntil(horizon); n != m || e.Now() != r.now || e.Pending() != r.queue.Len() {
				t.Fatalf("seed %d, horizon %v: ran %d (reference %d), clock %v (%v), %d pending (%d)",
					seed, horizon, n, m, e.Now(), r.now, e.Pending(), r.queue.Len())
			}
		}
		if len(got.log) != len(want.log) {
			t.Fatalf("seed %d: %d events fired, reference %d", seed, len(got.log), len(want.log))
		}
		for i := range got.log {
			if got.log[i] != want.log[i] {
				t.Fatalf("seed %d: event %d fired %s, reference %s", seed, i, got.log[i], want.log[i])
			}
		}
	}
}

// TestWarmEveryTickAllocatesNothing: once the queue has grown, firing and
// re-arming a periodic event allocates nothing.
func TestWarmEveryTickAllocatesNothing(t *testing.T) {
	e := NewEngine()
	ticks := 0
	if _, err := e.Every(1, "tick", func(*Engine) { ticks++ }); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Every(5, "sample", func(*Engine) {}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.RunUntil(10); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := e.RunUntil(e.Now() + 1); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("a warm Every tick allocates %v times", allocs)
	}
	if ticks < 100 {
		t.Errorf("%d ticks ran", ticks)
	}
}
