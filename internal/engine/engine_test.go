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

// TestShardedRoundMatchesSerial: with RoundWorkers > 1 and a >= 1024-host
// population, the sharded round must produce exactly the serial round's
// predictions (same order), stats, surviving sessions and surviving readings
// — across multiple rounds including staleness degradation and evictions —
// and the slot-indexed front-end exactly the keyed one's, serial and sharded.
func TestShardedRoundMatchesSerial(t *testing.T) {
	const hosts = 2048
	run := func(workers int, slotted bool) ([][]Prediction, []RoundStats, int, int) {
		e := testEngine(t, func(c *Config) { c.RoundWorkers = workers })
		order := make([]string, hosts)
		latest := make(map[string]telemetry.Reading, hosts)
		anchors := make(map[string]float64, hosts)
		slots := make([]Slot, hosts)
		for i := range order {
			id := fmt.Sprintf("p%02d-h%04d", i/128, i%128)
			order[i] = id
			latest[id] = telemetry.Reading{HostID: id, AtS: 0, TempC: 25 + float64(i%30)}
			anchors[id] = 40 + float64(i%40)
			slots[i] = Slot{Reading: latest[id], Present: true, Anchor: anchors[id]}
		}
		var allPreds [][]Prediction
		var allStats []RoundStats
		now := 0.0
		for round := 0; round < 8; round++ {
			now += 200 // large steps: some hosts go stale, then evict
			for i, id := range order {
				// Starve one host in three after round 2 (stale → evicted);
				// move anchors on every fifth host to force re-anchors.
				if round < 3 || i%3 != 0 {
					r := latest[id]
					r.AtS = now
					r.TempC = 25 + float64((round+i)%30)
					latest[id] = r
					slots[i].Reading, slots[i].Present = r, true
				}
				if round == 4 && i%5 == 0 {
					anchors[id] += 10
					slots[i].Anchor = anchors[id]
				}
			}
			var preds []Prediction
			var st RoundStats
			if slotted {
				preds, st = e.RoundSlots(nil, now, order, slots)
			} else {
				preds, st = e.Round(nil, now, order, latest, anchors)
			}
			allPreds = append(allPreds, preds)
			allStats = append(allStats, st)
		}
		readings := len(latest)
		if slotted {
			readings = 0
			for i := range slots {
				if slots[i].Present {
					readings++
				}
				if !e.HandleCurrent(order[i], slots[i].Handle) {
					t.Errorf("host %s: slot handle is not the registered session", order[i])
				}
			}
		}
		return allPreds, allStats, e.Len(), readings
	}

	sp, ss, slen, slat := run(1, false)
	for _, alt := range []struct {
		name    string
		workers int
		slotted bool
	}{{"keyed sharded", 8, false}, {"slots serial", 1, true}, {"slots sharded", 8, true}} {
		pp, ps, plen, plat := run(alt.workers, alt.slotted)
		if slen != plen || slat != plat {
			t.Fatalf("%s: population diverged: sessions %d vs %d, readings %d vs %d", alt.name, slen, plen, slat, plat)
		}
		for round := range sp {
			if ss[round] != ps[round] {
				t.Fatalf("%s: round %d stats diverged: serial keyed %+v, got %+v", alt.name, round, ss[round], ps[round])
			}
			if len(sp[round]) != len(pp[round]) {
				t.Fatalf("%s: round %d produced %d vs %d predictions", alt.name, round, len(sp[round]), len(pp[round]))
			}
			for i := range sp[round] {
				if sp[round][i] != pp[round][i] {
					t.Fatalf("%s: round %d prediction %d diverged: %+v vs %+v",
						alt.name, round, i, sp[round][i], pp[round][i])
				}
			}
		}
	}
	// The scenario must exercise all lifecycle paths, or the check is weak.
	var evicted, reanchored, stale int
	for round := range ss {
		evicted += ss[round].Evicted
		reanchored += ss[round].Reanchored
		for _, p := range sp[round] {
			if p.Stale {
				stale++
			}
		}
	}
	if evicted == 0 || reanchored == 0 || stale == 0 {
		t.Fatalf("scenario too tame: evicted %d, reanchored %d, stale %d", evicted, reanchored, stale)
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
