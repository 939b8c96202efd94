package engine

import (
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

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
// keeps its identity (same object, so cached handles stay good, and no
// allocation) and is bit-identical to one freshly created from the same
// reading and anchor — γ = 0, unseeded before this round's calibration,
// newest telemetry at the reading's instant. An unusable re-anchor (NaN
// temperature) leaves the old curve serving and counts nothing.
func TestReanchorInPlaceMatchesFreshSession(t *testing.T) {
	ids := []string{"h0"}
	moved := telemetry.Reading{HostID: "h0", AtS: 45, TempC: 41}

	e := testEngine(t, nil)
	slots := []Slot{{Reading: telemetry.Reading{HostID: "h0", AtS: 0, TempC: 25}, Present: true, Anchor: 50}}
	for _, now := range []float64{0, 15, 30} { // calibrate: γ ≠ 0, seeded
		slots[0].Reading.AtS, slots[0].Reading.TempC = now, 25+now/3
		if _, st := e.RoundSlots(nil, now, ids, slots); st.Live != 1 {
			t.Fatalf("warm-up round at %v: %+v", now, st)
		}
	}
	before := slots[0].Handle
	if g := sessionState(t, e, "h0").Predictor.Gamma; g == 0 {
		t.Fatal("warm-up left γ = 0; the reset would prove nothing")
	}

	// AllocsPerRun calls twice: the warm-up call flips the anchor back to
	// the session's own 50 (no drift), the measured one to 70 (re-anchor).
	slots[0].Reading, slots[0].Anchor = moved, 70
	var dst []Prediction
	var st RoundStats
	allocs := testing.AllocsPerRun(1, func() {
		slots[0].Anchor = 120 - slots[0].Anchor
		dst, st = e.RoundSlots(dst[:0], 45, ids, slots)
	})
	if st.Reanchored != 1 || st.Live != 1 {
		t.Fatalf("re-anchoring round: %+v", st)
	}
	if allocs != 0 {
		t.Fatalf("re-anchoring round allocates %.1f/op, want 0", allocs)
	}
	if slots[0].Handle != before || !e.HandleCurrent("h0", before) {
		t.Fatal("re-anchor replaced the session object")
	}

	fresh := testEngine(t, nil)
	if _, st := fresh.RoundSlots(nil, 45, ids, []Slot{{Reading: moved, Present: true, Anchor: 70}}); st.Reanchored != 1 {
		t.Fatalf("first-sight round: %+v", st)
	}
	if got, want := sessionState(t, e, "h0"), sessionState(t, fresh, "h0"); !reflect.DeepEqual(got, want) {
		t.Fatalf("re-anchored session differs from a fresh one:\n got %+v\nwant %+v", got, want)
	}

	// A NaN temperature cannot anchor a curve: old session, old state.
	want := sessionState(t, e, "h0")
	bad := []Slot{{Reading: telemetry.Reading{HostID: "h0", AtS: 2000, TempC: math.NaN()}, Present: true, Anchor: 20, Handle: before}}
	preds, st := e.RoundSlots(nil, 2000, ids, bad)
	if st.Reanchored != 0 || st.AnchorFailures != 0 || len(preds) != 1 {
		t.Fatalf("unusable re-anchor: %d predictions, %+v", len(preds), st)
	}
	if got := sessionState(t, e, "h0"); got.StableC != want.StableC || got.AnchorAtS != want.AnchorAtS || got.Predictor.Curve != want.Predictor.Curve {
		t.Fatalf("unusable re-anchor moved the curve: %+v -> %+v", want, got)
	}
}

// TestSlotHandlesUnderChurn runs slot-indexed rounds concurrently with what
// moves a session in or out of the map behind a cached handle — streaming
// pushes creating sessions inline, and deletes — and checks after every
// round that each handle a slot caches is the session a keyed lookup
// returns. Once the churn stops, a slot whose host has a session must not
// have missed it, and a Restore must retire every cached handle.
func TestSlotHandlesUnderChurn(t *testing.T) {
	e := testEngine(t, nil)
	const hosts = 256
	ids := make([]string, hosts)
	slots := make([]Slot, hosts)
	for i := range ids {
		ids[i] = fmt.Sprintf("h%03d", i)
		slots[i] = Slot{Reading: telemetry.Reading{HostID: ids[i], TempC: 25}, Present: true, Anchor: 60}
	}
	warm := func(telemetry.Reading) (float64, bool) { return 60, true }

	stop := make(chan struct{})
	var churn sync.WaitGroup
	for w := 0; w < 4; w++ {
		churn.Add(1)
		go func(w int) {
			defer churn.Done()
			for iter := 0; ; iter++ {
				select {
				case <-stop:
					return
				default:
				}
				id := ids[(w*61+iter*7)%hosts]
				if iter%3 == 0 {
					e.Delete(id)
				} else {
					e.ObserveBatch([]telemetry.Reading{{HostID: id, AtS: float64(iter), TempC: 30}}, warm)
				}
			}
		}(w)
	}

	var dst []Prediction
	for round := 1; round <= 60; round++ {
		now := float64(round) * 15
		for i := range slots {
			slots[i].Reading.AtS = now
			// Drop the anchor on a moving stripe: those hosts only get a
			// session back when a push creates one.
			slots[i].Anchor = 60
			if (i+round)%4 == 0 {
				slots[i].Anchor = math.NaN()
			}
		}
		var st RoundStats
		dst, st = e.RoundSlots(dst[:0], now, ids, slots)
		if st.Live != len(dst) || st.Live+st.AnchorFailures != hosts {
			t.Fatalf("round %d: %d predictions, %+v", round, len(dst), st)
		}
		for i, id := range ids {
			if !e.HandleCurrent(id, slots[i].Handle) {
				t.Fatalf("round %d: host %s serves a session that is no longer registered", round, id)
			}
		}
	}
	close(stop)
	churn.Wait()

	// Quiescent: one more round, and every handle is exactly the keyed lookup.
	for i := range slots {
		slots[i].Anchor = math.NaN()
	}
	agree := func(when string) {
		t.Helper()
		dst, _ = e.RoundSlots(dst[:0], 61*15, ids, slots)
		for i, id := range ids {
			if cur, _ := e.get(id); slots[i].Handle.sess != cur {
				t.Fatalf("%s: host %s caches handle %p, keyed lookup returns %p", when, id, slots[i].Handle.sess, cur)
			}
		}
		if len(dst) != e.Len() || len(dst) == 0 {
			t.Fatalf("%s: %d predictions for %d sessions", when, len(dst), e.Len())
		}
	}
	agree("after the churn")
	if err := e.Restore(e.Snapshot()); err != nil {
		t.Fatal(err)
	}
	agree("after a restore")
}
