package engine

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"

	"vmtherm/internal/core"
	"vmtherm/internal/telemetry"
)

// TestObserveBatchAppliesAndCreates: pushed readings land in existing
// sessions; unknown hosts are created inline when the anchor lookup is
// warm and deferred when it is not.
func TestObserveBatchAppliesAndCreates(t *testing.T) {
	e := testEngine(t, nil)
	if e.adopt("known", 20, 60, 0) == nil {
		t.Fatal("valid anchors refused")
	}
	warm := func(r telemetry.Reading) (float64, bool) {
		return 55, r.HostID == "warm"
	}
	st := e.ObserveBatch([]telemetry.Reading{
		{HostID: "known", AtS: 0, TempC: 25},
		{HostID: "warm", AtS: 0, TempC: 22},
		{HostID: "cold", AtS: 0, TempC: 22},
	}, warm)
	if st.Applied != 2 || st.Created != 1 || st.Deferred != 1 {
		t.Fatalf("stats %+v, want applied 2 created 1 deferred 1", st)
	}
	if e.Len() != 2 {
		t.Fatalf("sessions = %d, want 2", e.Len())
	}
	// The created session is live and predictable without any round.
	if _, _, err := e.predict("warm", 0); err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.predict("cold", 0); !errors.Is(err, ErrNoSession) {
		t.Fatalf("deferred host grew a session: %v", err)
	}
	// No lookup at all defers too.
	st = e.ObserveBatch([]telemetry.Reading{{HostID: "cold", AtS: 0, TempC: 22}}, nil)
	if st.Deferred != 1 || st.Applied != 0 {
		t.Fatalf("nil-anchor stats %+v", st)
	}
}

// TestStreamObserveMatchesBatchObserve: the streaming observe is the
// calibration core's predictor makes on the engine's shape — same γ, same
// prediction — and re-presenting the reading through a batch round is a
// calibration no-op (the idempotency the two paths compose on).
func TestStreamObserveMatchesBatchObserve(t *testing.T) {
	es := testEngine(t, nil)
	if es.adopt("h0", 20, 60, 0) == nil {
		t.Fatal("valid anchors refused")
	}
	es.ObserveBatch([]telemetry.Reading{{HostID: "h0", AtS: 0, TempC: 26}}, nil)
	curve, err := core.NewCurve(20, 60, core.DefaultTBreakS, core.DefaultCurveDelta)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := core.NewDynamicPredictor(curve, core.DefaultDynamicConfig())
	if err != nil {
		t.Fatal(err)
	}
	ref.Observe(0, 26, nil)
	ts, gs, err := es.predict("h0", 0)
	if err != nil {
		t.Fatal(err)
	}
	if tb, gb := ref.Predict(0, nil), ref.Gamma(); ts != tb || gs != gb {
		t.Fatalf("streamed prediction %v (γ %v) != core's %v (γ %v)", ts, gs, tb, gb)
	}

	// Round re-presents the same newest reading: γ must not move again.
	g1, _ := es.observe("h0", 0, 26)
	latest := map[string]telemetry.Reading{"h0": {HostID: "h0", AtS: 0, TempC: 26}}
	es.Round(nil, 0, []string{"h0"}, latest, map[string]float64{"h0": 60})
	g2, _ := es.observe("h0", 0, 26)
	if g1 != g2 {
		t.Fatalf("round re-calibrated an already-streamed reading: γ %v → %v", g1, g2)
	}
}

// TestPredictFreshReturnsPrediction: the synchronous-predictive primitive
// applies the reading and answers in one pass, with zero staleness.
func TestPredictFreshReturnsPrediction(t *testing.T) {
	e := testEngine(t, nil)
	warm := func(telemetry.Reading) (float64, bool) { return 60, true }
	var st StreamStats
	var p Prediction
	if !e.PredictFresh(telemetry.Reading{HostID: "h0", AtS: 0, TempC: 25}, warm, &st, &p) {
		t.Fatal("warm PredictFresh produced no prediction")
	}
	if st.Created != 1 || st.Applied != 1 {
		t.Fatalf("stats %+v", st)
	}
	if p.HostID != "h0" || p.StalenessS != 0 || p.Stale {
		t.Fatalf("prediction %+v", p)
	}
	// It must agree with an observe-then-predict pair on a twin engine.
	e2 := testEngine(t, nil)
	e2.ObserveBatch([]telemetry.Reading{{HostID: "h0", AtS: 0, TempC: 25}}, warm)
	q, _, err := e2.predict("h0", 0)
	if err != nil {
		t.Fatal(err)
	}
	if p.TempC != q {
		t.Fatalf("PredictFresh %v != ObserveBatch+Predict %v", p.TempC, q)
	}
	// A cold host defers and produces nothing.
	cold := func(telemetry.Reading) (float64, bool) { return 0, false }
	if e.PredictFresh(telemetry.Reading{HostID: "h1", AtS: 0, TempC: 25}, cold, &st, &p) {
		t.Fatal("cold PredictFresh fabricated a prediction")
	}
	if st.Deferred != 1 {
		t.Fatalf("deferred = %d, want 1", st.Deferred)
	}
}

// TestStreamObserveZeroAllocWarm: once sessions exist, the streaming
// observe/predict hot path must not allocate — the mirror of
// TestRoundZeroAllocSteadyState for the event-driven path.
func TestStreamObserveZeroAllocWarm(t *testing.T) {
	e := testEngine(t, nil)
	const hosts = 64
	readings := make([]telemetry.Reading, hosts)
	for i := range readings {
		readings[i] = telemetry.Reading{HostID: fmt.Sprintf("h%03d", i), AtS: 0, TempC: 25}
	}
	warm := func(telemetry.Reading) (float64, bool) { return 60, true }
	e.ObserveBatch(readings, warm)
	if e.Len() != hosts {
		t.Fatalf("warm-up created %d sessions, want %d", e.Len(), hosts)
	}

	now := 0.0
	var st StreamStats
	var p Prediction
	allocs := testing.AllocsPerRun(20, func() {
		now += 15
		for i := range readings {
			readings[i].AtS = now
			readings[i].TempC = 30
		}
		st = e.ObserveBatch(readings, warm)
		for i := range readings {
			if !e.PredictFresh(readings[i], nil, &st, &p) {
				t.Fatal("warm PredictFresh failed")
			}
			if _, _, err := e.predict(readings[i].HostID, now); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs > 0 {
		t.Fatalf("warm streaming observe/predict allocates %.1f times, want 0", allocs)
	}
	// One ObserveBatch apply plus one PredictFresh apply per host.
	if st.Applied != 2*hosts || st.Created != 0 || st.Deferred != 0 {
		t.Fatalf("warm stats %+v", st)
	}
}

// TestStreamConcurrentWithRound hammers the composition under -race:
// ObserveBatch, Predict and PredictFresh run concurrently with batch
// rounds over overlapping hosts, plus create/delete churn on disjoint
// hosts. Correctness here is no data race, no lost sessions, and every
// prediction finite.
func TestStreamConcurrentWithRound(t *testing.T) {
	e := testEngine(t, nil)
	const hosts = 128
	order := make([]string, hosts)
	latest := make(map[string]telemetry.Reading, hosts)
	anchors := make(map[string]float64, hosts)
	for i := range order {
		id := fmt.Sprintf("h%03d", i)
		order[i] = id
		latest[id] = telemetry.Reading{HostID: id, AtS: 0, TempC: 25}
		anchors[id] = 60
	}
	if _, st := e.Round(nil, 0, order, latest, anchors); st.Live != hosts {
		t.Fatalf("seed round live %d", st.Live)
	}

	stop := make(chan struct{})
	var roundWG sync.WaitGroup
	roundWG.Add(1)
	go func() {
		defer roundWG.Done()
		var dst []Prediction
		now := 0.0
		for {
			select {
			case <-stop:
				return
			default:
			}
			now += 15
			for _, id := range order {
				r := latest[id]
				r.AtS = now
				latest[id] = r
			}
			dst, _ = e.Round(dst[:0], now, order, latest, anchors)
		}
	}()

	warm := func(telemetry.Reading) (float64, bool) { return 60, true }
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			batch := make([]telemetry.Reading, 16)
			var st StreamStats
			var p Prediction
			for iter := 0; iter < 200; iter++ {
				now := float64(iter)
				for i := range batch {
					// Overlap the round's population on purpose.
					batch[i] = telemetry.Reading{
						HostID: order[(w*16+i+iter)%hosts],
						AtS:    now,
						TempC:  25 + float64((w+iter)%10),
					}
				}
				e.ObserveBatch(batch, warm)
				if !e.PredictFresh(batch[0], warm, &st, &p) {
					t.Error("PredictFresh on a live host failed")
					return
				}
				if math.IsNaN(p.TempC) || math.IsInf(p.TempC, 0) {
					t.Errorf("non-finite prediction %+v", p)
					return
				}
				if q, _, err := e.predict(batch[1].HostID, now); err != nil {
					t.Error(err)
					return
				} else if math.IsNaN(q) {
					t.Errorf("NaN prediction for %s", batch[1].HostID)
					return
				}
				// Churn a worker-private host through create/stream/delete.
				priv := fmt.Sprintf("w%d-priv", w)
				e.ObserveBatch([]telemetry.Reading{{HostID: priv, AtS: now, TempC: 30}}, warm)
				e.drop(priv)
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	roundWG.Wait()

	if got := e.Len(); got != hosts {
		t.Fatalf("engine len = %d, want %d", got, hosts)
	}
}
