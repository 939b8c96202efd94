package engine

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"vmtherm/internal/telemetry"
)

// sessionState captures id's full serializable state through Snapshot.
func sessionState(t *testing.T, e *Engine, id string) SessionState {
	t.Helper()
	for _, ss := range e.Snapshot().Sessions {
		if ss.ID == id {
			return ss
		}
	}
	t.Fatalf("no session %q", id)
	return SessionState{}
}

// TestReanchorInPlaceMatchesFreshSession: a session re-anchored by a round
// — because its anchor drifted, or because its slot was marked (the
// deployment changed) — keeps its memory (same object, no allocation) and
// is bit-identical to one freshly created from the same reading and anchor:
// γ = 0, unseeded before this round's calibration, newest telemetry at the
// reading's instant. An unusable drift re-anchor (NaN temperature) leaves
// the old curve serving and counts nothing; an unusable marked one drops
// the session and counts an anchor failure, as first sight would; a mark on
// a host without a reading drops the session and counts nothing.
func TestReanchorInPlaceMatchesFreshSession(t *testing.T) {
	ids := []string{"h0"}
	moved := telemetry.Reading{HostID: "h0", AtS: 45, TempC: 41}
	// warm builds an engine whose h0 session has calibrated (γ ≠ 0, seeded)
	// on anchor 50, and returns the session object.
	warm := func(t *testing.T) (*Engine, []Slot, *session) {
		t.Helper()
		e := testEngine(t, nil)
		slots := []Slot{{Reading: telemetry.Reading{HostID: "h0", AtS: 0, TempC: 25}, Present: true, Anchor: 50}}
		for _, now := range []float64{0, 15, 30} {
			slots[0].Reading.AtS, slots[0].Reading.TempC = now, 25+now/3
			if st := e.roundSlots(now, ids, slots); st.Live != 1 {
				t.Fatalf("warm-up round at %v: %+v", now, st)
			}
		}
		if g := sessionState(t, e, "h0").Predictor.Gamma; g == 0 {
			t.Fatal("warm-up left γ = 0; the reset would prove nothing")
		}
		sess, _ := e.get("h0")
		return e, slots, sess
	}
	fresh := func(t *testing.T, anchor float64) SessionState {
		t.Helper()
		f := testEngine(t, nil)
		if st := f.roundSlots(45, ids, []Slot{{Reading: moved, Present: true, Anchor: anchor}}); st.Reanchored != 1 {
			t.Fatalf("first-sight round: %+v", st)
		}
		return sessionState(t, f, "h0")
	}
	// inPlace runs round 45 twice through AllocsPerRun with mut applied
	// before each, and checks the measured one re-anchors h0 in place onto
	// a fresh session at anchor.
	inPlace := func(t *testing.T, anchor float64, mut func(*Slot)) {
		t.Helper()
		e, slots, before := warm(t)
		slots[0].Reading = moved
		var st RoundStats
		allocs := testing.AllocsPerRun(1, func() {
			mut(&slots[0])
			st = e.roundSlots(45, ids, slots)
		})
		if st.Reanchored != 1 || st.Live != 1 || st.AnchorFailures != 0 || slots[0].Reanchor {
			t.Fatalf("re-anchoring round: %+v, mark left %v", st, slots[0].Reanchor)
		}
		if allocs != 0 {
			t.Fatalf("re-anchoring round allocates %.1f/op, want 0", allocs)
		}
		if after, _ := e.get("h0"); after != before {
			t.Fatal("re-anchor replaced the session object")
		}
		if got, want := sessionState(t, e, "h0"), fresh(t, anchor); !reflect.DeepEqual(got, want) {
			t.Fatalf("re-anchored session differs from a fresh one:\n got %+v\nwant %+v", got, want)
		}
	}

	t.Run("drift", func(t *testing.T) {
		// The warm-up call keeps the session's own 50 (no drift), the
		// measured one moves it to 70 (re-anchor).
		calls := 0
		inPlace(t, 70, func(s *Slot) {
			calls++
			s.Anchor = 50 + 20*float64(calls-1)
		})
	})
	t.Run("mark", func(t *testing.T) {
		// The anchor does not move: the mark alone re-anchors.
		inPlace(t, 50, func(s *Slot) { s.Anchor, s.Reanchor = 50, true })
	})
	t.Run("unusable drift", func(t *testing.T) {
		e, slots, _ := warm(t)
		want := sessionState(t, e, "h0")
		slots[0].Reading, slots[0].Anchor = telemetry.Reading{HostID: "h0", AtS: 2000, TempC: math.NaN()}, 20
		st := e.roundSlots(2000, ids, slots)
		if st.Reanchored != 0 || st.AnchorFailures != 0 || !slots[0].Predicted {
			t.Fatalf("unusable re-anchor: predicted %v, %+v", slots[0].Predicted, st)
		}
		if got := sessionState(t, e, "h0"); got.StableC != want.StableC || got.AnchorAtS != want.AnchorAtS || got.Predictor.Curve != want.Predictor.Curve {
			t.Fatalf("unusable re-anchor moved the curve: %+v -> %+v", want, got)
		}
	})
	for _, tc := range []struct {
		name   string
		temp   float64
		anchor float64
	}{
		{"unusable mark: no anchor", 41, math.NaN()},
		{"unusable mark: no curve from the reading", math.NaN(), 50},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, slots, _ := warm(t)
			slots[0].Reading = telemetry.Reading{HostID: "h0", AtS: 45, TempC: tc.temp}
			slots[0].Anchor, slots[0].Reanchor = tc.anchor, true
			st := e.roundSlots(45, ids, slots)
			if st.AnchorFailures != 1 || st.Live != 0 || st.Reanchored != 0 || slots[0].Predicted || e.Len() != 0 {
				t.Fatalf("unusable marked re-anchor: predicted %v, %+v, %d sessions", slots[0].Predicted, st, e.Len())
			}
		})
	}
	t.Run("mark without a reading", func(t *testing.T) {
		e, slots, _ := warm(t)
		slots[0].Present, slots[0].Reanchor = false, true
		if st := e.roundSlots(45, ids, slots); st != (RoundStats{}) || slots[0].Predicted || slots[0].Reanchor || e.Len() != 0 {
			t.Fatalf("marked host without a reading: %+v, predicted %v, mark %v, %d sessions", st, slots[0].Predicted, slots[0].Reanchor, e.Len())
		}
	})
}

// TestTableChurnUnderPushes runs rounds over a table whose shape and marks
// change every round — hosts discovered at the tail, a share marked, a
// share without an anchor, some going dark until the round forgets them,
// and every tenth round a trim that keeps the sorted present hosts up to a
// bound — while pushes without an anchor lookup stream readings (with and
// without a prediction) to known and unknown hosts. After every round the
// index must invert the ids, every mark must be consumed, the predictions
// must be the live sessions', and no push may have made a session; a
// restore at the end must give every captured session a slot.
func TestTableChurnUnderPushes(t *testing.T) {
	e := testEngine(t, nil)
	name := func(k int) string { return fmt.Sprintf("h%04d", k) }
	hosts := 0
	discover := func(n int, now float64) {
		for ; n > 0; n-- {
			id := name(hosts)
			hosts++
			i := e.SlotOf(id)
			s := &e.Slots()[i]
			s.Reading, s.Present = telemetry.Reading{HostID: id, AtS: now, TempC: 25}, true
		}
	}
	discover(256, 0)

	stop := make(chan struct{})
	var pushers sync.WaitGroup
	var applied, created atomic.Int64
	for w := 0; w < 4; w++ {
		pushers.Add(1)
		go func(w int) {
			defer pushers.Done()
			var p Prediction
			for iter := 0; ; iter++ {
				select {
				case <-stop:
					return
				default:
				}
				r := telemetry.Reading{HostID: name((w*61 + iter*7) % 640), AtS: float64(iter), TempC: 30}
				var st StreamStats
				if w%2 == 0 {
					e.PredictFresh(r, nil, &st, &p)
				} else {
					st = e.ObserveBatch([]telemetry.Reading{r}, nil)
				}
				applied.Add(int64(st.Applied))
				created.Add(int64(st.Created))
			}
		}(w)
	}

	var total RoundStats
	for round := 1; round <= 60 || applied.Load() == 0; round++ {
		if round > 20000 {
			t.Fatal("no push ever applied; the churn proved nothing")
		}
		// Let the pushers in between two rounds too. A host dark for ten
		// rounds is forgotten.
		runtime.Gosched()
		now := 100 * float64(round)
		discover(4, now)
		slots := e.Slots()
		for i := range slots {
			s := &slots[i]
			if i%10 != 3 {
				s.Reading.AtS = now
			}
			s.Anchor, s.Reanchor = 60, (i+round)%5 == 0
			if (i+round)%4 == 0 {
				s.Anchor = math.NaN()
			}
		}
		st := e.RoundSlots(now)
		total.Forgotten += st.Forgotten
		total.Evicted += st.Evicted
		total.AnchorFailures += st.AnchorFailures
		if round%10 == 0 {
			var keep []int32
			for i := range slots {
				if slots[i].Present {
					keep = append(keep, int32(i))
				}
			}
			ids := e.IDs()
			slices.SortFunc(keep, func(a, b int32) int { return strings.Compare(ids[a], ids[b]) })
			e.Keep(keep[:min(len(keep), 240)])
		}

		ids, slots := e.IDs(), e.Slots()
		if len(e.index) != len(ids) || len(slots) != len(ids) {
			t.Fatalf("round %d: %d ids, %d index entries, %d slots", round, len(ids), len(e.index), len(slots))
		}
		live := 0
		for i, id := range ids {
			s := &slots[i]
			if e.index[id] != int32(i) {
				t.Fatalf("round %d: index[%s] = %d, want %d", round, id, e.index[id], i)
			}
			if s.Reanchor || (s.Predicted && s.sess == nil) {
				t.Fatalf("round %d: host %s mark %v, predicted %v without a session", round, id, s.Reanchor, s.Predicted)
			}
			if s.sess != nil {
				live++
			}
		}
		if n := predicted(slots); round%10 != 0 && n != st.Live {
			t.Fatalf("round %d: %d predictions, %+v", round, n, st)
		}
		if e.Len() != live {
			t.Fatalf("round %d: Len %d, %d slots hold a session", round, e.Len(), live)
		}
	}
	close(stop)
	pushers.Wait()
	if created.Load() != 0 || applied.Load() == 0 {
		t.Fatalf("pushes applied %d readings and created %d sessions; want some applied and none created", applied.Load(), created.Load())
	}
	if total.Evicted == 0 || total.AnchorFailures == 0 {
		t.Fatalf("churn too tame: %+v", total)
	}

	want := e.Snapshot()
	if err := e.Restore(want); err != nil {
		t.Fatal(err)
	}
	if got := e.Snapshot(); !reflect.DeepEqual(got, want) || len(e.IDs()) != len(want.Sessions) {
		t.Fatalf("restore: %d slots for %d sessions", len(e.IDs()), len(want.Sessions))
	}
}

// TestSlotIsTwoCacheLines pins the slot's size: a round walks the table in
// slot order, and at 128 bytes a slot never straddles a third cache line.
func TestSlotIsTwoCacheLines(t *testing.T) {
	if n := unsafe.Sizeof(Slot{}); n != 128 {
		t.Fatalf("Slot is %d bytes, want 128", n)
	}
}
