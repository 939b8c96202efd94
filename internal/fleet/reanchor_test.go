package fleet

import (
	"math"
	"reflect"
	"sync/atomic"
	"testing"

	"vmtherm/internal/engine"
	"vmtherm/internal/telemetry"
	"vmtherm/internal/vmm"
	"vmtherm/internal/workload"
)

// markedSlots lists the slots marked for the next round to re-anchor.
func markedSlots(c *Controller) (marked []int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := range c.eng.Slots() {
		if c.eng.Slots()[i].Reanchor {
			marked = append(marked, i)
		}
	}
	return marked
}

// roundChecked runs one round and checks that every slot marked before it
// was re-anchored like a host seen first. A marked slot with a usable anchor
// must hold the prediction, and its session the state, of a fresh session
// built from the slot's reading and anchor by a one-host engine round; one
// without a usable anchor must have neither. It returns the round's report
// and the counts of fresh and unusable marked slots.
func roundChecked(t *testing.T, c *Controller) (rep RoundReport, fresh, unusable int) {
	t.Helper()
	marked := markedSlots(c)
	rep, err := c.RunRound()
	if err != nil {
		t.Fatal(err)
	}
	sessions := make(map[string]engine.SessionState)
	for _, ss := range c.eng.Snapshot().Sessions {
		sessions[ss.ID] = ss
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, i := range marked {
		id, s := c.eng.IDs()[i], c.eng.Slots()[i]
		ss, live := sessions[id]
		if math.IsNaN(s.Anchor) {
			if s.Predicted || live {
				t.Fatalf("round %d: %s kept its session (predicted %v) without a usable anchor", rep.Round, id, s.Predicted)
			}
			unusable++
			continue
		}
		twin, err := engine.New(c.eng.Config())
		if err != nil {
			t.Fatal(err)
		}
		preds, st := twin.Round(nil, rep.SimTimeS, []string{id},
			map[string]telemetry.Reading{id: s.Reading}, map[string]float64{id: s.Anchor})
		if st.Reanchored != 1 || len(preds) != 1 || !s.Predicted || preds[0] != s.Pred {
			t.Fatalf("round %d: %s predicted %v %+v, a fresh session %+v (%+v)", rep.Round, id, s.Predicted, s.Pred, preds, st)
		}
		if want := twin.Snapshot().Sessions[0]; !reflect.DeepEqual(ss, want) {
			t.Fatalf("round %d: %s re-anchored to\n%+v\na fresh session is\n%+v", rep.Round, id, ss, want)
		}
		fresh++
	}
	return rep, fresh, unusable
}

// TestReanchorMarkMatchesFreshSession pins the re-anchor mark on a
// simulated fleet: RemoveVM, a placement and a migration's two ends mark
// their hosts, and the next round re-anchors each in place, bit-identical to
// a fresh session built from the same reading and anchor. When the model
// gives a marked host no usable anchor, the round drops its session and
// counts an anchor failure, as it does for a host seen first.
func TestReanchorMarkMatchesFreshSession(t *testing.T) {
	cfg := testConfig()
	cfg.MaxMigrationsPerRound = 1
	var poisoned atomic.Bool
	predict := syntheticStable
	score := predict.Score
	predict.Score = func(shape vmm.HostConfig, fans int, rows []HostRow, out []float64) error {
		err := score(shape, fans, rows, out)
		if poisoned.Load() {
			for i := range out {
				out[i] = math.NaN()
			}
		}
		return err
	}
	c, err := New(cfg, predict)
	if err != nil {
		t.Fatal(err)
	}
	seedHotHost(t, c)
	for range 3 {
		roundChecked(t, c)
	}
	expectFresh := func(what string, n int) {
		t.Helper()
		if _, fresh, unusable := roundChecked(t, c); fresh < n || unusable != 0 {
			t.Fatalf("%s: the next round re-anchored %d marked hosts (%d without an anchor), want at least %d", what, fresh, unusable, n)
		}
	}

	if err := c.RemoveVM("hot-05"); err != nil {
		t.Fatal(err)
	}
	expectFresh("RemoveVM", 1)
	decs, err := c.PlaceBatch([]workload.VMSpec{HeavyVMSpec("mark-place", 1, 2)})
	if err != nil || decs[0].Status != Placed {
		t.Fatalf("placement: %+v, %v", decs, err)
	}
	expectFresh("placement", 1)
	for round := 0; ; round++ {
		if round == 80 {
			t.Fatal("no migration in 80 rounds")
		}
		if rep, _, _ := roundChecked(t, c); rep.AppliedMoves > 0 {
			break
		}
	}
	expectFresh("migration", 2)

	poisoned.Store(true)
	c.InvalidateAnchorCache()
	if err := c.RemoveVM("mark-place"); err != nil {
		t.Fatal(err)
	}
	rep, _, unusable := roundChecked(t, c)
	if unusable == 0 || rep.AnchorFailures != unusable {
		t.Fatalf("unusable anchors: %d marked hosts without one, %d anchor failures", unusable, rep.AnchorFailures)
	}
	poisoned.Store(false)
	if rep, _, _ = roundChecked(t, c); rep.AnchorFailures != 0 || rep.SessionsLive != rep.Hosts {
		t.Fatalf("after the model recovers: %d anchor failures, %d of %d hosts live", rep.AnchorFailures, rep.SessionsLive, rep.Hosts)
	}
}

// TestPushBetweenMarkAndRound: a push to a host whose slot is marked streams
// to the session's old curve, and the round after it re-anchors the session
// in place as a fresh one, erasing what the push wrote, and reconciles the
// live index to the round's recompute.
func TestPushBetweenMarkAndRound(t *testing.T) {
	c, err := New(testConfig(), syntheticStable)
	if err != nil {
		t.Fatal(err)
	}
	seedHotHost(t, c)
	for range 8 {
		roundChecked(t, c)
	}
	if err := c.RemoveVM("hot-00"); err != nil {
		t.Fatal(err)
	}
	res := make([]IngestResult, 1)
	push := Reading{HostID: "r0-h0", AtS: c.src.NowS() + c.cfg.UpdateEveryS, TempC: 95, Util: 0.9}
	if c.IngestBatch([]Reading{push}, true, res); res[0].Outcome != IngestStreamed {
		t.Fatalf("push to a marked host: outcome %v, want streamed to the old curve", res[0].Outcome)
	}
	if _, fresh, _ := roundChecked(t, c); fresh == 0 {
		t.Fatal("the round re-anchored no marked host")
	}
	checkIndexMatchesRound(t, c, 9)
}
