package predictserver

import (
	"cmp"
	"fmt"
	"math"
	"net/http"
	"sync"
	"testing"

	"vmtherm/internal/core"
	"vmtherm/internal/engine"
)

// TestSessionRoutesMatchCorePredictor pins the HTTP session routes to core:
// every γ and temperature they answer is, bit for bit, what a
// core.DynamicPredictor anchored on the request's shape (NewShape with the
// paper's defaults for each knob left at zero, then Anchor) computes without
// a memo. Sessions are created with an explicit ψ_stable, from features, and
// with each override; readings land inside and past Δ_update; observes and
// predicts alternate between the single and the batch routes.
func TestSessionRoutesMatchCorePredictor(t *testing.T) {
	_, ts, rec := newTestServer(t)
	m, _ := testModel(t)
	modelStable, err := m.PredictFeatures(rec.Features)
	if err != nil {
		t.Fatal(err)
	}
	stable := func(v float64) *float64 { return &v }
	reqs := []SessionRequest{
		{Phi0: 22, StableTempC: stable(64.5)},
		{Phi0: 21.25, Features: rec.Features},
		{Phi0: 20, StableTempC: stable(70), Lambda: 0.35},
		{Phi0: 24, StableTempC: stable(58), UpdateEveryS: 40},
		{Phi0: 19, StableTempC: stable(75), GapS: 150},
		{Phi0: 23, StableTempC: stable(66), TBreakS: 900},
		{Phi0: 25, StableTempC: stable(61), CurveDeltaS: 12.5},
		{Phi0: 18.5, StableTempC: stable(80), Lambda: 0.6, UpdateEveryS: 7, GapS: 20, TBreakS: 300, CurveDeltaS: 45},
	}
	ids := make([]string, len(reqs))
	refs := make([]core.DynamicPredictor, len(reqs))
	for i, req := range reqs {
		created := postJSON(t, ts.URL+"/v1/session", req)
		if created.StatusCode != http.StatusCreated {
			t.Fatalf("create %+v: status %d", req, created.StatusCode)
		}
		resp := decode[SessionResponse](t, created)
		want := modelStable
		if req.StableTempC != nil {
			want = *req.StableTempC
		}
		if math.Float64bits(resp.StableTempC) != math.Float64bits(want) {
			t.Fatalf("session %d answered stable %v, want %v", i, resp.StableTempC, want)
		}
		sh, err := core.NewShape(cmp.Or(req.TBreakS, core.DefaultTBreakS), cmp.Or(req.CurveDeltaS, core.DefaultCurveDelta),
			core.DynamicConfig{
				Lambda:       cmp.Or(req.Lambda, core.DefaultLambda),
				UpdateEveryS: cmp.Or(req.UpdateEveryS, 15),
				GapS:         cmp.Or(req.GapS, 60),
			})
		if err != nil {
			t.Fatal(err)
		}
		if err := refs[i].Anchor(req.Phi0, want, &sh); err != nil {
			t.Fatal(err)
		}
		ids[i] = resp.ID
	}
	same := func(what string, got, want float64) {
		t.Helper()
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: answered %v (%#x), core computes %v (%#x)", what, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	// Steps 5 s apart reach every override's Δ_update both early (a no-op
	// observe) and on time; the temperatures climb and wobble so γ moves.
	for step := 0; step < 40; step++ {
		at := 5 * float64(step)
		if step%7 == 3 {
			at += 0.375
		}
		temps := make([]float64, len(ids))
		for i := range temps {
			temps[i] = reqs[i].Phi0 + 30*at/(at+120) + float64((step*3+i)%5)/4
		}
		if step%2 == 0 {
			for i, id := range ids {
				refs[i].Observe(at, temps[i], nil)
				got := decode[ObserveResponse](t, postJSON(t, fmt.Sprintf("%s/v1/session/%s/observe", ts.URL, id), ObserveRequest{T: at, TempC: temps[i]}))
				same(fmt.Sprintf("step %d session %d single observe γ", step, i), got.Gamma, refs[i].Gamma())
			}
		} else {
			var batch ObserveBatchRequest
			for i, id := range ids {
				batch.Items = append(batch.Items, ObserveBatchItem{ID: id, T: at, TempC: temps[i]})
			}
			got := decode[ObserveBatchResponse](t, postJSON(t, ts.URL+"/v1/session/batch/observe", batch))
			for i := range ids {
				refs[i].Observe(at, temps[i], nil)
				if got.Results[i].Error != "" {
					t.Fatalf("step %d session %d batch observe: %s", step, i, got.Results[i].Error)
				}
				same(fmt.Sprintf("step %d session %d batch observe γ", step, i), got.Results[i].Gamma, refs[i].Gamma())
			}
		}
		query := at + 2.5
		if step%3 == 0 {
			for i, id := range ids {
				resp, err := http.Get(fmt.Sprintf("%s/v1/session/%s/predict?t=%v", ts.URL, id, query))
				if err != nil {
					t.Fatal(err)
				}
				got := decode[PredictResponse](t, resp)
				same(fmt.Sprintf("step %d session %d single predict", step, i), got.TempC, refs[i].Predict(query, nil))
				same(fmt.Sprintf("step %d session %d single predict γ", step, i), got.Gamma, refs[i].Gamma())
			}
		} else {
			var batch PredictBatchRequest
			for _, id := range ids {
				batch.Items = append(batch.Items, PredictBatchItem{ID: id, T: query})
			}
			got := decode[PredictBatchResponse](t, postJSON(t, ts.URL+"/v1/session/batch/predict", batch))
			for i := range ids {
				if got.Results[i].Error != "" {
					t.Fatalf("step %d session %d batch predict: %s", step, i, got.Results[i].Error)
				}
				same(fmt.Sprintf("step %d session %d batch predict", step, i), got.Results[i].TempC, refs[i].Predict(query, nil))
				same(fmt.Sprintf("step %d session %d batch predict γ", step, i), got.Results[i].Gamma, refs[i].Gamma())
			}
		}
	}
}

// TestEvictIdleUnderTraffic sweeps while other goroutines observe, predict
// and create by id: a session is evicted exactly when its last stamp is more
// than engine.EvictAfterS old, a session in use is never lost, and the live
// count always equals the sessions the map holds. Run it with -race.
func TestEvictIdleUnderTraffic(t *testing.T) {
	var clock sync.Mutex
	nowS := 0.0
	st := newSessionStore(func() float64 { clock.Lock(); defer clock.Unlock(); return nowS })
	advance := func(s float64) { clock.Lock(); nowS += s; clock.Unlock() }
	req := &SessionRequest{Phi0: 30}
	const idle, busy = 40, 8
	ids := make([]string, idle+busy)
	for i := range ids {
		id, err := st.create(req, 60)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	advance(engine.EvictAfterS) // every session exactly at the horizon: none evicted
	if n := st.evictIdle(); n != 0 {
		t.Fatalf("evictIdle at exactly EvictAfterS removed %d", n)
	}
	for _, id := range ids[idle:] { // the busy ones are used now, the idle ones not
		if _, _, err := st.predict(id, 0); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for _, id := range ids[idle:] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range 200 {
				if _, err := st.observe(id, float64(k), 40); err != nil {
					t.Errorf("busy %s lost: %v", id, err)
					return
				}
				if _, _, err := st.predict(id, float64(k)); err != nil {
					t.Errorf("busy %s lost: %v", id, err)
					return
				}
				if _, err := st.create(req, 60); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	evicted := 0
	for range 50 {
		evicted += st.evictIdle()
		advance(1)
	}
	wg.Wait()
	evicted += st.evictIdle()
	if evicted != idle {
		t.Errorf("evicted %d sessions, want the %d idle ones", evicted, idle)
	}
	st.mu.RLock()
	held := len(st.byID)
	st.mu.RUnlock()
	if want := busy + busy*200; held != want || st.count() != held {
		t.Errorf("map holds %d sessions, live count %d, want %d", held, st.count(), want)
	}
}
