package engine

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"vmtherm/internal/telemetry"
)

func testEngine(t *testing.T, mut func(*Config)) *Engine {
	t.Helper()
	cfg := DefaultConfig()
	if mut != nil {
		mut(&cfg)
	}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestConfigValidation(t *testing.T) {
	for _, tc := range []struct {
		name string
		mut  func(*Config)
	}{
		{"negative gap", func(c *Config) { c.GapS = -1 }},
		{"negative round workers", func(c *Config) { c.RoundWorkers = -1 }},
	} {
		cfg := DefaultConfig()
		tc.mut(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("%s: config accepted", tc.name)
		}
	}
}

// TestSessionLifecycle follows one host's session from first sight to
// deletion: created at its reading and anchor, calibrated by a push, its
// anchor read back, deleted exactly once.
func TestSessionLifecycle(t *testing.T) {
	e := testEngine(t, nil)
	if e.adopt("h0", 20, 60, 0) == nil {
		t.Fatal("valid anchors refused")
	}
	if e.Len() != 1 {
		t.Fatalf("len = %d, want 1", e.Len())
	}
	if _, err := e.observe("ghost", 0, 25); !errors.Is(err, ErrNoSession) {
		t.Fatalf("ghost observe err = %v", err)
	}
	if e.Len() != 1 {
		t.Fatal("a push without an anchor lookup created a session")
	}
	gamma, err := e.observe("h0", 0, 25)
	if err != nil {
		t.Fatal(err)
	}
	// First observation at t=0: dif = 25 − (φ(0)=20 + 0), γ = λ·dif = 4.
	if math.Abs(gamma-4) > 1e-9 {
		t.Fatalf("gamma after first observation = %v, want 4", gamma)
	}
	var st StreamStats
	var p Prediction
	if !e.PredictFresh(telemetry.Reading{HostID: "h0", AtS: 0, TempC: 25}, nil, &st, &p) {
		t.Fatal("PredictFresh deferred a live host")
	}
	if p.TempC <= 20 || p.TempC > 60+gamma+1e-9 {
		t.Fatalf("implausible Δ_gap-ahead prediction %v", p.TempC)
	}
	if stable, err := e.Stable("h0"); err != nil || stable != 60 {
		t.Fatalf("stable = %v, %v", stable, err)
	}
	if !e.Delete("h0") || e.Delete("h0") {
		t.Fatal("delete/double-delete semantics broken")
	}
	if e.Len() != 0 {
		t.Fatalf("len after delete = %d", e.Len())
	}
}

// TestSessionAnchorTranslation: a session anchored at engine time T must
// treat observations at T as curve time 0.
func TestSessionAnchorTranslation(t *testing.T) {
	e := testEngine(t, nil)
	if e.adopt("a", 30, 70, 1000) == nil || e.adopt("b", 30, 70, 0) == nil {
		t.Fatal("valid anchors refused")
	}
	ga, err := e.observe("a", 1000, 33)
	if err != nil {
		t.Fatal(err)
	}
	gb, err := e.observe("b", 0, 33)
	if err != nil {
		t.Fatal(err)
	}
	if ga != gb {
		t.Fatalf("anchored observation gammas differ: %v vs %v", ga, gb)
	}
	pa, _, err := e.predict("a", 1000)
	if err != nil {
		t.Fatal(err)
	}
	pb, _, err := e.predict("b", 0)
	if err != nil {
		t.Fatal(err)
	}
	if pa != pb {
		t.Fatalf("anchored predictions differ: %v vs %v", pa, pb)
	}
}

// roundOnce is a helper driving one Round over a single host.
func roundOnce(e *Engine, now float64, latest map[string]telemetry.Reading, anchors map[string]float64) ([]Prediction, RoundStats) {
	order := make([]string, 0, len(latest))
	for id := range latest {
		order = append(order, id)
	}
	return e.Round(nil, now, order, latest, anchors)
}

// TestRoundCreatesAndCalibrates: the fleet-facing path — a reading plus an
// anchor yields a session and a Δ_gap-ahead prediction.
func TestRoundCreatesAndCalibrates(t *testing.T) {
	e := testEngine(t, nil)
	latest := map[string]telemetry.Reading{"h0": {HostID: "h0", AtS: 0, TempC: 25}}
	anchors := map[string]float64{"h0": 60}
	preds, st := roundOnce(e, 0, latest, anchors)
	if len(preds) != 1 || st.Live != 1 || st.Reanchored != 1 {
		t.Fatalf("preds %d live %d reanchored %d", len(preds), st.Live, st.Reanchored)
	}
	p := preds[0]
	if p.Stale || p.StalenessS != 0 {
		t.Fatalf("fresh reading marked stale: %+v", p)
	}
	if p.UncertaintyC != uncertaintyBaseC {
		t.Fatalf("uncertainty %v, want base %v", p.UncertaintyC, uncertaintyBaseC)
	}
	if e.Len() != 1 {
		t.Fatalf("sessions = %d, want 1", e.Len())
	}

	// A stable anchor within ε must NOT re-anchor.
	anchors["h0"] = 60.5
	latest["h0"] = telemetry.Reading{HostID: "h0", AtS: 15, TempC: 30}
	_, st = roundOnce(e, 15, latest, anchors)
	if st.Reanchored != 0 {
		t.Fatalf("re-anchored on %v°C drift within eps %v", 0.5, ReanchorEpsC)
	}
	// Beyond ε the deployment changed: re-anchor.
	anchors["h0"] = 75
	latest["h0"] = telemetry.Reading{HostID: "h0", AtS: 30, TempC: 35}
	_, st = roundOnce(e, 30, latest, anchors)
	if st.Reanchored != 1 {
		t.Fatal("anchor moved beyond eps but session kept the old curve")
	}
}

// TestRoundStalenessWidensUncertainty: telemetry older than staleAfterS
// degrades the host — prediction marked stale, uncertainty widened, and no
// calibration from the fossil reading.
func TestRoundStalenessWidensUncertainty(t *testing.T) {
	e := testEngine(t, nil)
	latest := map[string]telemetry.Reading{"h0": {HostID: "h0", AtS: 0, TempC: 25}}
	anchors := map[string]float64{"h0": 60}
	preds, _ := roundOnce(e, 0, latest, anchors)
	fresh := preds[0]

	// 100 s later with no new telemetry: staleness 100 > 45.
	preds, st := roundOnce(e, 100, latest, anchors)
	if len(preds) != 1 {
		t.Fatalf("stale host lost its prediction entirely: %d preds", len(preds))
	}
	p := preds[0]
	if !p.Stale {
		t.Fatal("host with 100 s old telemetry not marked stale")
	}
	if p.StalenessS != 100 {
		t.Fatalf("staleness %v, want 100", p.StalenessS)
	}
	wantU := uncertaintyBaseC + uncertaintyPerSC*100
	if math.Abs(p.UncertaintyC-wantU) > 1e-9 {
		t.Fatalf("uncertainty %v, want %v", p.UncertaintyC, wantU)
	}
	if p.UncertaintyC <= fresh.UncertaintyC {
		t.Fatal("staleness did not widen uncertainty")
	}
	if st.MaxStalenessS != 100 {
		t.Fatalf("max staleness %v, want 100", st.MaxStalenessS)
	}
	if e.Len() != 1 {
		t.Fatal("stale (not evicted) session must survive")
	}
}

// TestRoundEvictsDarkHosts: telemetry older than EvictAfterS removes the
// session AND the fossil reading, so dead hosts do not accumulate.
func TestRoundEvictsDarkHosts(t *testing.T) {
	e := testEngine(t, nil)
	latest := map[string]telemetry.Reading{
		"dark":  {HostID: "dark", AtS: 0, TempC: 25},
		"alive": {HostID: "alive", AtS: 0, TempC: 25},
	}
	anchors := map[string]float64{"dark": 60, "alive": 60}
	_, st := roundOnce(e, 0, latest, anchors)
	if st.Evicted != 0 || e.Len() != 2 {
		t.Fatalf("premature eviction: %+v len %d", st, e.Len())
	}

	// The live host keeps reporting; the dark one stays at t=0.
	const past = EvictAfterS + 30
	latest["alive"] = telemetry.Reading{HostID: "alive", AtS: past, TempC: 30}
	preds, st := roundOnce(e, past, latest, anchors)
	if st.Evicted != 1 {
		t.Fatalf("evicted = %d, want 1", st.Evicted)
	}
	if e.Len() != 1 {
		t.Fatalf("sessions after eviction = %d, want 1", e.Len())
	}
	if _, ok := latest["dark"]; ok {
		t.Fatal("evicted host's reading must be forgotten")
	}
	if len(preds) != 1 || preds[0].HostID != "alive" {
		t.Fatalf("surviving predictions wrong: %+v", preds)
	}
	// Re-running must not double-count.
	if _, st := roundOnce(e, past+15, latest, anchors); st.Evicted != 0 {
		t.Fatal("eviction re-counted for an already-forgotten host")
	}
}

// TestRoundClampsFutureTimestamps: a clock-skewed reading from the future
// must not produce negative staleness.
func TestRoundClampsFutureTimestamps(t *testing.T) {
	e := testEngine(t, nil)
	latest := map[string]telemetry.Reading{"h0": {HostID: "h0", AtS: 500, TempC: 25}}
	anchors := map[string]float64{"h0": 60}
	preds, st := roundOnce(e, 100, latest, anchors)
	if len(preds) != 1 {
		t.Fatal("future-stamped host lost its prediction")
	}
	if preds[0].StalenessS < 0 || st.MaxStalenessS < 0 {
		t.Fatalf("negative staleness leaked: %+v", preds[0])
	}
	if preds[0].UncertaintyC < uncertaintyBaseC {
		t.Fatal("uncertainty below base")
	}
}

// TestRoundAnchorFailureIsCounted: a NaN anchor must not create a session,
// and the blindness must be visible in the stats.
func TestRoundAnchorFailureIsCounted(t *testing.T) {
	e := testEngine(t, nil)
	latest := map[string]telemetry.Reading{"h0": {HostID: "h0", AtS: 0, TempC: 25}}
	anchors := map[string]float64{"h0": math.NaN()}
	preds, st := roundOnce(e, 0, latest, anchors)
	if len(preds) != 0 {
		t.Fatalf("NaN anchor produced a prediction: %+v", preds)
	}
	if st.AnchorFailures != 1 {
		t.Fatalf("anchor failures = %d, want 1", st.AnchorFailures)
	}
	if e.Len() != 0 {
		t.Fatal("NaN anchor created a session")
	}

	// A previously healthy session survives a later bad anchor.
	anchors["h0"] = 60
	if _, st := roundOnce(e, 0, latest, anchors); st.Reanchored != 1 {
		t.Fatalf("recovery re-anchor missing: %+v", st)
	}
	anchors["h0"] = math.NaN()
	preds, st = roundOnce(e, 15, latest, anchors)
	if len(preds) != 1 || st.AnchorFailures != 0 {
		t.Fatalf("healthy session dropped on bad re-anchor: preds %d stats %+v", len(preds), st)
	}
}

// TestRoundSlotsRefusesInfiniteAnchor: a ±Inf ψ_stable anchor is as
// unusable as NaN. A host first seen with one gets no session and no
// prediction and counts as an anchor failure; a healthy session handed one
// keeps serving its old curve.
func TestRoundSlotsRefusesInfiniteAnchor(t *testing.T) {
	for _, inf := range []float64{math.Inf(1), math.Inf(-1)} {
		e := testEngine(t, nil)
		ids := []string{"h0", "h1"}
		slots := []Slot{
			{Reading: telemetry.Reading{HostID: "h0", TempC: 25}, Present: true, Anchor: inf},
			{Reading: telemetry.Reading{HostID: "h1", TempC: 25}, Present: true, Anchor: 60},
		}
		st := e.RoundSlots(0, ids, slots)
		if slots[0].Predicted || st.AnchorFailures != 1 || st.Live != 1 || e.Len() != 1 {
			t.Fatalf("anchor %v on first sight: predicted %v (%+v), stats %+v, %d sessions",
				inf, slots[0].Predicted, slots[0].Pred, st, e.Len())
		}
		slots[1].Anchor = inf
		slots[1].Reading.AtS = 15
		st = e.RoundSlots(15, ids, slots)
		if p := slots[1].Pred; !slots[1].Predicted || math.IsNaN(p.TempC) || math.IsInf(p.TempC, 0) || st.Reanchored != 0 {
			t.Fatalf("anchor %v on a live session: prediction %+v, stats %+v", inf, p, st)
		}
	}
}

// TestRoundSkipsUnobservedHosts: no reading means no session and no
// prediction — never a fabricated one.
func TestRoundSkipsUnobservedHosts(t *testing.T) {
	e := testEngine(t, nil)
	preds, st := e.Round(nil, 0, []string{"h0", "h1"},
		map[string]telemetry.Reading{"h1": {HostID: "h1", TempC: 25}},
		map[string]float64{"h0": 60, "h1": 60})
	if len(preds) != 1 || preds[0].HostID != "h1" {
		t.Fatalf("preds = %+v", preds)
	}
	if st.Live != 1 {
		t.Fatalf("live = %d", st.Live)
	}
}

// TestRoundZeroAllocSteadyState: after the first round builds the sessions,
// subsequent rounds over an unchanged population must not allocate — the
// hot-path contract the fleet benchmark leans on.
func TestRoundZeroAllocSteadyState(t *testing.T) {
	e := testEngine(t, nil)
	const hosts = 64
	order := make([]string, hosts)
	latest := make(map[string]telemetry.Reading, hosts)
	anchors := make(map[string]float64, hosts)
	for i := range order {
		id := fmt.Sprintf("h%03d", i)
		order[i] = id
		latest[id] = telemetry.Reading{HostID: id, AtS: 0, TempC: 25}
		anchors[id] = 60
	}
	dst, _ := e.Round(nil, 0, order, latest, anchors)

	now := 0.0
	allocs := testing.AllocsPerRun(20, func() {
		now += 15
		for _, id := range order {
			latest[id] = telemetry.Reading{HostID: id, AtS: now, TempC: 30}
		}
		dst, _ = e.Round(dst[:0], now, order, latest, anchors)
	})
	if allocs > 0 {
		t.Fatalf("steady-state round allocates %.1f times", allocs)
	}
	if len(dst) != hosts {
		t.Fatalf("round lost predictions: %d of %d", len(dst), hosts)
	}
}

// TestEngineConcurrentLifecycle hammers the engine with the mix the
// fleet runs: goroutines push readings through PredictFresh (creating
// sessions inline from a warm anchor) and delete every other host they
// created, while a round loop runs over a disjoint host population. Run
// under -race (CI does) this is the locking correctness test of the session
// map and the round gate.
func TestEngineConcurrentLifecycle(t *testing.T) {
	e := testEngine(t, nil)

	stopRounds := make(chan struct{})
	var roundWG sync.WaitGroup
	roundWG.Add(1)
	go func() {
		defer roundWG.Done()
		order := []string{"fleet-a", "fleet-b"}
		latest := map[string]telemetry.Reading{
			"fleet-a": {HostID: "fleet-a", TempC: 25},
			"fleet-b": {HostID: "fleet-b", TempC: 30},
		}
		anchors := map[string]float64{"fleet-a": 55, "fleet-b": 65}
		var dst []Prediction
		now := 0.0
		for {
			select {
			case <-stopRounds:
				return
			default:
			}
			now += 15
			latest["fleet-a"] = telemetry.Reading{HostID: "fleet-a", AtS: now, TempC: 25}
			latest["fleet-b"] = telemetry.Reading{HostID: "fleet-b", AtS: now, TempC: 30}
			dst, _ = e.Round(dst[:0], now, order, latest, anchors)
		}
	}()

	warm := func(telemetry.Reading) (float64, bool) { return 60, true }
	const workers = 16
	const perWorker = 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var st StreamStats
			var p Prediction
			ids := make([]string, 0, perWorker)
			for i := 0; i < perWorker; i++ {
				id := fmt.Sprintf("w%02d-h%02d", w, i)
				ids = append(ids, id)
				for k := range 2 { // the first push creates, the second calibrates
					r := telemetry.Reading{HostID: id, AtS: 15 * float64(i+k), TempC: 25 + float64(i%10)}
					if !e.PredictFresh(r, warm, &st, &p) || p.HostID != id {
						t.Errorf("worker %d: push %d to %s: %+v", w, k, id, p)
						return
					}
				}
				// Interleave deletes of every other session.
				if i%2 == 1 {
					prev := ids[len(ids)-2]
					if !e.Delete(prev) {
						t.Errorf("worker %d: delete %s failed", w, prev)
						return
					}
					if e.PredictFresh(telemetry.Reading{HostID: prev, AtS: 1e4, TempC: 30}, nil, &st, &p) {
						t.Errorf("worker %d: deleted %s still predicts", w, prev)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(stopRounds)
	roundWG.Wait()

	want := workers*perWorker/2 + 2 // surviving pushed hosts + 2 round hosts
	if got := e.Len(); got != want {
		t.Errorf("engine len = %d, want %d", got, want)
	}
}

// TestShardedRoundMatchesSerial: every round runs the chunked body, and at
// RoundWorkers 1, 2 and 4 — over a population the chunks split unevenly —
// each slot must hold exactly what a one-host engine fed the same host's
// readings and anchors computes, and the round stats must be the sum of the
// one-host rounds'. The script covers first sight (in the first round, late,
// and again after an eviction), re-anchoring, staleness, eviction, and
// anchor failure (no anchor, and a reading no curve can start from). The keyed Round over
// maps of the same readings must return the slots' predictions as one list
// in slot order, with the same stats, sessions and surviving readings.
func TestShardedRoundMatchesSerial(t *testing.T) {
	const hosts, rounds = 2051, 10 // 2051 hosts: 1026+1025 at two workers, 3×513+512 at four
	ids := make([]string, hosts)
	for i := range ids {
		ids[i] = fmt.Sprintf("p%02d-h%04d", i/128, i%128)
	}
	// script is host i's input to round r at now: a reading when has, and
	// the anchor.
	script := func(r, i int, now float64) (rd telemetry.Reading, has bool, anchor float64) {
		anchor = 40 + float64(i%40)
		switch {
		case r >= 4 && i%5 == 0:
			anchor += 10 // re-anchor from round 4
		case r < 4 && i%7 == 1:
			anchor = math.NaN() // no anchor: blind until round 4
		}
		switch {
		case r < 5 && i%11 == 2: // unseen until round 5
		case r > 2 && r < 9 && i%3 == 0: // dark from round 3: stale, evicted at 7, back at 9
		default:
			rd, has = telemetry.Reading{HostID: ids[i], AtS: now, TempC: 25 + float64((r+i)%30)}, true
			if r < 6 && i%13 == 3 {
				rd.TempC = math.NaN() // a φ(0) no curve takes: blind until round 6
			}
		}
		return rd, has, anchor
	}
	apply := func(s *Slot, rd telemetry.Reading, has bool, anchor float64) {
		if has {
			s.Reading, s.Present = rd, true
		}
		s.Anchor = anchor
	}

	// The reference: one engine per host, each slot a round of its own.
	refs := make([]*Engine, hosts)
	for i := range refs {
		refs[i] = testEngine(t, nil)
	}
	refSlots := make([]Slot, hosts)
	type run struct {
		workers        int
		slotted, keyed *Engine
		slots          []Slot
		latest         map[string]telemetry.Reading
		anchors        map[string]float64
	}
	var runs []*run
	for _, w := range []int{1, 2, 4} {
		runs = append(runs, &run{
			workers: w,
			slotted: testEngine(t, func(c *Config) { c.RoundWorkers = w }),
			keyed:   testEngine(t, func(c *Config) { c.RoundWorkers = w }),
			slots:   make([]Slot, hosts),
			latest:  make(map[string]telemetry.Reading),
			anchors: make(map[string]float64),
		})
	}
	var stale, lateSight int
	var total RoundStats
	for r := range rounds {
		now := 200 * float64(r+1) // large steps: a dark host is stale at once and evicted after 900 s
		var want RoundStats
		oldest := 0.0 // the age of the oldest reading the round meets
		for i := range refs {
			rd, has, anchor := script(r, i, now)
			apply(&refSlots[i], rd, has, anchor)
			had, age := refSlots[i].Present, now-refSlots[i].Reading.AtS
			if had {
				oldest = max(oldest, age)
			}
			one := refs[i].RoundSlots(now, ids[i:i+1], refSlots[i:i+1])
			if refSlots[i].Present != (had && age <= EvictAfterS) {
				t.Fatalf("round %d host %d: a reading %v s old is kept %v", r, i, age, refSlots[i].Present)
			}
			want.Live += one.Live
			want.AnchorFailures += one.AnchorFailures
			want.Reanchored += one.Reanchored
			want.Forgotten += one.Forgotten
			want.Evicted += one.Evicted
			want.MaxStalenessS = max(want.MaxStalenessS, one.MaxStalenessS)
			if refSlots[i].Predicted && refSlots[i].Pred.Stale {
				stale++
			}
		}
		if want.MaxStalenessS != oldest {
			t.Fatalf("round %d: max staleness %v, the oldest reading is %v s old", r, want.MaxStalenessS, oldest)
		}
		if r == 5 || r == 9 {
			lateSight += want.Reanchored
		}
		total.AnchorFailures += want.AnchorFailures
		total.Evicted += want.Evicted
		total.Reanchored += want.Reanchored
		wantList := predictions(refSlots)
		for _, x := range runs {
			for i, id := range ids {
				rd, has, anchor := script(r, i, now)
				apply(&x.slots[i], rd, has, anchor)
				if has {
					x.latest[id] = rd
				}
				x.anchors[id] = anchor
			}
			if st := x.slotted.RoundSlots(now, ids, x.slots); st != want {
				t.Fatalf("workers %d round %d: stats %+v, one-host rounds sum to %+v", x.workers, r, st, want)
			}
			for i := range ids {
				got, ref := &x.slots[i], &refSlots[i]
				if got.Predicted != ref.Predicted || got.Pred != ref.Pred || got.Present != ref.Present {
					t.Fatalf("workers %d round %d host %d: slot predicted %v %+v present %v, reference %v %+v present %v",
						x.workers, r, i, got.Predicted, got.Pred, got.Present, ref.Predicted, ref.Pred, ref.Present)
				}
			}
			list, st := x.keyed.Round(nil, now, ids, x.latest, x.anchors)
			if st != want || !reflect.DeepEqual(list, wantList) {
				t.Fatalf("workers %d round %d: keyed Round returned %d predictions, %+v; the slots hold %d, %+v",
					x.workers, r, len(list), st, len(wantList), want)
			}
			present := 0
			for i := range x.slots {
				if x.slots[i].Present {
					present++
				}
			}
			if len(x.latest) != present {
				t.Fatalf("workers %d round %d: keyed Round kept %d readings, the slots %d", x.workers, r, len(x.latest), present)
			}
		}
	}
	sessions := 0
	for _, e := range refs {
		sessions += e.Len()
	}
	for _, x := range runs {
		if x.slotted.Len() != sessions || x.keyed.Len() != sessions {
			t.Fatalf("workers %d: %d and %d sessions, reference %d", x.workers, x.slotted.Len(), x.keyed.Len(), sessions)
		}
		for i, id := range ids {
			if !x.slotted.HandleCurrent(id, x.slots[i].Handle) {
				t.Fatalf("workers %d host %s: slot handle is not the registered session", x.workers, id)
			}
		}
	}
	t.Logf("%d sessions at the end; over the rounds: evicted %d, anchor failures %d, re-anchored %d, stale %d, late first sights %d",
		sessions, total.Evicted, total.AnchorFailures, total.Reanchored, stale, lateSight)
	// The scenario must exercise every lifecycle path, or the check is weak.
	if total.Evicted == 0 || total.AnchorFailures == 0 || total.Reanchored == 0 || stale == 0 || lateSight == 0 {
		t.Fatalf("scenario too tame: evicted %d, anchor failures %d, re-anchored %d, stale %d, late first sights %d",
			total.Evicted, total.AnchorFailures, total.Reanchored, stale, lateSight)
	}
}

// TestShardedRoundSmallPopulationStaysSerial: below the gate the sharded
// configuration must keep the serial path's zero-allocation contract.
func TestShardedRoundSmallPopulationStaysSerial(t *testing.T) {
	e := testEngine(t, func(c *Config) { c.RoundWorkers = 8 })
	const hosts = 256
	order := make([]string, hosts)
	latest := make(map[string]telemetry.Reading, hosts)
	anchors := make(map[string]float64, hosts)
	for i := range order {
		id := fmt.Sprintf("h%04d", i)
		order[i] = id
		latest[id] = telemetry.Reading{HostID: id, AtS: 0, TempC: 30}
		anchors[id] = 50
	}
	dst, _ := e.Round(nil, 0, order, latest, anchors)
	now := 0.0
	allocs := testing.AllocsPerRun(50, func() {
		now += 15
		for _, id := range order {
			r := latest[id]
			r.AtS = now
			latest[id] = r
		}
		dst, _ = e.Round(dst[:0], now, order, latest, anchors)
	})
	if allocs != 0 {
		t.Fatalf("small-population round with RoundWorkers=8 allocates %.1f/op, want 0", allocs)
	}
}

// TestConfigRejectsNonFiniteFloats sets every float field of Config to NaN,
// +Inf and −Inf in turn: Validate must refuse each one (NaN fails every
// comparison, so range checks alone let it through).
func TestConfigRejectsNonFiniteFloats(t *testing.T) {
	typ := reflect.TypeOf(Config{})
	n := 0
	for i := 0; i < typ.NumField(); i++ {
		if typ.Field(i).Type.Kind() != reflect.Float64 {
			continue
		}
		n++
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			c := DefaultConfig()
			reflect.ValueOf(&c).Elem().Field(i).SetFloat(v)
			if err := c.Validate(); err == nil {
				t.Errorf("%s = %v accepted", typ.Field(i).Name, v)
			}
		}
	}
	if n < 2 {
		t.Fatalf("found %d float fields", n)
	}
}
