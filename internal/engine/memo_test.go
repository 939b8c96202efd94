package engine

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"vmtherm/internal/core"
	"vmtherm/internal/telemetry"
)

// TestRoundMemoMatchesDirectWithPushes: rounds that evaluate Eq. (3)
// through the engine's curve memos give the bits the unmemoised evaluation
// gives, serial and sharded (RoundWorkers 4 over 1,536 hosts) alike, while
// pushes of the same readings run concurrently (run it under -race). A
// tenth of the hosts re-anchor every round, so every session stays in its
// warm-up and shares its curve-local times with its cohort. A pushed
// reading is the round's own, so whether it lands before or after the
// round's turn at its host the session ends in the same state: every engine
// must publish the reference engine's predictions and stats.
func TestRoundMemoMatchesDirectWithPushes(t *testing.T) {
	const hosts, rounds = 1536, 30
	ids := make([]string, hosts)
	for i := range ids {
		ids[i] = fmt.Sprintf("m%02d-h%03d", i/128, i%128)
	}
	type fleet struct {
		e     *Engine
		slots []Slot
		push  bool
	}
	newFleet := func(workers int, push bool) *fleet {
		f := &fleet{e: testEngine(t, func(c *Config) { c.RoundWorkers = workers }), slots: make([]Slot, hosts), push: push}
		for i := range f.slots {
			f.slots[i] = Slot{Present: true, Anchor: 40 + float64(i%40)}
		}
		return f
	}
	ref, serial, sharded := newFleet(1, false), newFleet(1, true), newFleet(4, true)
	var warm int
	for round := 0; round < rounds; round++ {
		now := 15 * float64(round)
		readings := make([]telemetry.Reading, hosts)
		for i := range readings {
			readings[i] = telemetry.Reading{HostID: ids[i], AtS: now, TempC: 25 + float64((i+3*round)%50)/2}
		}
		var results [3][]Prediction
		var stats [3]RoundStats
		for k, f := range []*fleet{ref, serial, sharded} {
			for i := range f.slots {
				f.slots[i].Reading = readings[i]
				if round > 0 && i%10 == round%10 {
					f.slots[i].Anchor = 2*(40+float64(i%40)) + 5 - f.slots[i].Anchor
				}
			}
			var wg sync.WaitGroup
			if f.push {
				wg.Add(1)
				go func() {
					defer wg.Done()
					var st StreamStats
					var p Prediction
					for lo := 0; lo < hosts; lo += 64 {
						f.e.ObserveBatch(readings[lo:lo+32], nil)
						for _, r := range readings[lo+32 : lo+64] {
							if f.e.PredictFresh(r, nil, &st, &p) && (math.IsNaN(p.TempC) || p.HostID != r.HostID) {
								t.Errorf("PredictFresh(%+v) = %+v", r, p)
							}
						}
					}
				}()
			}
			stats[k] = f.e.roundSlots(now, ids, f.slots)
			results[k] = predictions(f.slots)
			wg.Wait()
		}
		if stats[0].Live != hosts {
			t.Fatalf("round %d: %+v", round, stats[0])
		}
		for k, name := range []string{"serial with pushes", "sharded with pushes"} {
			if stats[k+1] != stats[0] {
				t.Fatalf("round %d: %s stats %+v, reference %+v", round, name, stats[k+1], stats[0])
			}
			for i := range results[0] {
				if got, want := results[k+1][i], results[0][i]; got != want {
					t.Fatalf("round %d host %d: %s predicted %+v, reference %+v", round, i, name, got, want)
				}
			}
		}
		for i, p := range results[0] {
			direct, _, err := ref.e.predict(ids[i], now)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(direct) != math.Float64bits(p.TempC) {
				t.Fatalf("round %d host %s: round predicted %v through the memo, Predict %v", round, ids[i], p.TempC, direct)
			}
		}
		for _, ss := range ref.e.Snapshot().Sessions {
			if now-ss.AnchorAtS+ref.e.Config().GapS < core.DefaultTBreakS {
				warm++
			}
		}
	}
	if warm < hosts*rounds*9/10 {
		t.Fatalf("only %d of %d predictions were made in the warm-up: the memo is barely used", warm, hosts*rounds)
	}
}

// TestPredictFreshOneLock: a pushed reading's prediction comes from the
// curve the reading calibrated, even while rounds re-anchor the session
// back and forth. The rounds' reading is stale, so they re-anchor without
// calibrating; every push at curve-local 500 s then calibrates the fresh
// curve it meets (or meets one it already calibrated), so its prediction
// is that curve's ψ*(560) + 0.8·(90 − ψ*(500)) for one of the two anchors.
// A re-anchor between the reading's calibration and the prediction would
// answer from an uncalibrated curve instead.
func TestPredictFreshOneLock(t *testing.T) {
	e := testEngine(t, nil)
	anchors := [2]float64{40, 80}
	var want [2]float64
	for k, a := range anchors {
		c, err := core.NewCurve(30, a, core.DefaultTBreakS, core.DefaultCurveDelta)
		if err != nil {
			t.Fatal(err)
		}
		d, err := core.NewDynamicPredictor(c, core.DefaultDynamicConfig())
		if err != nil {
			t.Fatal(err)
		}
		d.Observe(500, 90, nil)
		want[k] = d.Predict(500, nil)
	}
	ids := []string{"h0"}
	slots := []Slot{{Reading: telemetry.Reading{HostID: "h0", AtS: 0, TempC: 30}, Present: true, Anchor: anchors[0]}}
	if st := e.roundSlots(100, ids, slots); st.Reanchored != 1 {
		t.Fatalf("first round: %+v", st)
	}
	stop := make(chan struct{})
	var rounds atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for n := 1; ; n++ {
			select {
			case <-stop:
				return
			default:
			}
			slots[0].Anchor = anchors[n%2]
			if st := e.roundSlots(100, ids, slots); st.Reanchored != 1 || !(st.MaxStalenessS > staleAfterS) {
				t.Errorf("round %d: %+v", n, st)
			}
			rounds.Add(1)
		}
	}()
	defer wg.Wait()
	defer close(stop)
	push := telemetry.Reading{HostID: "h0", AtS: 500, TempC: 90}
	var st StreamStats
	var p Prediction
	// Push until the rounds have re-anchored the session a few hundred
	// times, however the two goroutines are scheduled.
	for i := 0; i < 20000 || rounds.Load() < 500; i++ {
		if !e.PredictFresh(push, nil, &st, &p) {
			t.Fatal("PredictFresh deferred a live host")
		}
		if p.TempC != want[0] && p.TempC != want[1] {
			t.Fatalf("push %d predicted %v, want %v or %v: the prediction skipped the reading's calibration", i, p.TempC, want[0], want[1])
		}
	}
}
