package predictserver

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"

	"vmtherm/internal/core"
	"vmtherm/internal/dataset"
	"vmtherm/internal/workload"
)

// trainedModel builds a small but real model once per test binary.
var (
	modelOnce sync.Once
	model     *core.StablePredictor
	modelRec  dataset.Record
	modelErr  error
)

func testModel(t testing.TB) (*core.StablePredictor, dataset.Record) {
	t.Helper()
	modelOnce.Do(func() {
		cases, err := workload.GenerateCases(workload.DefaultGenOptions(), 17, "ps", 30)
		if err != nil {
			modelErr = err
			return
		}
		recs, err := dataset.Build(context.Background(), cases, dataset.DefaultBuildOptions(17))
		if err != nil {
			modelErr = err
			return
		}
		m, err := core.TrainStable(context.Background(), recs, core.FastStableConfig())
		if err != nil {
			modelErr = err
			return
		}
		model = m
		modelRec = recs[0]
	})
	if modelErr != nil {
		t.Fatal(modelErr)
	}
	return model, modelRec
}

func newTestServer(t *testing.T) (*Server, *httptest.Server, dataset.Record) {
	t.Helper()
	m, rec := testModel(t)
	srv, err := New(m, WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts, rec
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decode[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

func TestNewRejectsNilModel(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Fatal("nil model accepted")
	}
}

func TestHealthz(t *testing.T) {
	_, ts, _ := newTestServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	body := decode[map[string]string](t, resp)
	if body["status"] != "ok" {
		t.Errorf("body = %v", body)
	}
}

func TestStablePrediction(t *testing.T) {
	_, ts, rec := newTestServer(t)
	resp := postJSON(t, ts.URL+"/v1/predict/stable", StableRequest{Features: rec.Features})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	body := decode[StableResponse](t, resp)
	// The model saw this record in training; prediction should be close.
	if math.Abs(body.StableTempC-rec.StableTemp) > 5 {
		t.Errorf("prediction %v far from %v", body.StableTempC, rec.StableTemp)
	}
}

func TestStablePredictionBadRequests(t *testing.T) {
	_, ts, _ := newTestServer(t)
	resp, err := http.Post(ts.URL+"/v1/predict/stable", "application/json",
		bytes.NewReader([]byte("{not json")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("garbage body status = %d", resp.StatusCode)
	}
	resp = postJSON(t, ts.URL+"/v1/predict/stable", StableRequest{Features: []float64{1, 2}})
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("wrong-dim status = %d", resp.StatusCode)
	}
}

func TestDynamicSessionLifecycle(t *testing.T) {
	srv, ts, rec := newTestServer(t)

	// Create a session with model-derived ψ_stable.
	resp := postJSON(t, ts.URL+"/v1/session", SessionRequest{
		Phi0:     22,
		Features: rec.Features,
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create status = %d", resp.StatusCode)
	}
	sess := decode[SessionResponse](t, resp)
	if sess.ID == "" || sess.StableTempC <= 22 {
		t.Fatalf("session = %+v", sess)
	}
	if srv.SessionCount() != 1 {
		t.Errorf("session count = %d", srv.SessionCount())
	}

	// Observe a measurement 2° above the curve start: γ moves λ·dif.
	resp = postJSON(t, fmt.Sprintf("%s/v1/session/%s/observe", ts.URL, sess.ID),
		ObserveRequest{T: 0, TempC: 24})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("observe status = %d", resp.StatusCode)
	}
	obs := decode[ObserveResponse](t, resp)
	if math.Abs(obs.Gamma-0.8*2) > 1e-9 {
		t.Errorf("gamma = %v, want 1.6", obs.Gamma)
	}

	// Predict 60 s ahead.
	getResp, err := http.Get(fmt.Sprintf("%s/v1/session/%s/predict?t=0", ts.URL, sess.ID))
	if err != nil {
		t.Fatal(err)
	}
	if getResp.StatusCode != http.StatusOK {
		t.Fatalf("predict status = %d", getResp.StatusCode)
	}
	pr := decode[PredictResponse](t, getResp)
	if pr.TempC <= 22 || pr.TempC > 110 {
		t.Errorf("prediction %v implausible", pr.TempC)
	}
	if pr.Gamma != obs.Gamma {
		t.Errorf("gamma drifted: %v vs %v", pr.Gamma, obs.Gamma)
	}

	// Delete and verify gone.
	req, err := http.NewRequest(http.MethodDelete,
		fmt.Sprintf("%s/v1/session/%s", ts.URL, sess.ID), nil)
	if err != nil {
		t.Fatal(err)
	}
	delResp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	delResp.Body.Close()
	if delResp.StatusCode != http.StatusOK {
		t.Fatalf("delete status = %d", delResp.StatusCode)
	}
	if srv.SessionCount() != 0 {
		t.Errorf("session count after delete = %d", srv.SessionCount())
	}
	getResp2, err := http.Get(fmt.Sprintf("%s/v1/session/%s/predict?t=0", ts.URL, sess.ID))
	if err != nil {
		t.Fatal(err)
	}
	getResp2.Body.Close()
	if getResp2.StatusCode != http.StatusNotFound {
		t.Errorf("deleted session predict status = %d", getResp2.StatusCode)
	}
}

func TestSessionWithExplicitStable(t *testing.T) {
	_, ts, _ := newTestServer(t)
	stable := 70.0
	resp := postJSON(t, ts.URL+"/v1/session", SessionRequest{
		Phi0:        20,
		StableTempC: &stable,
		GapS:        30,
		Lambda:      0.5,
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create status = %d", resp.StatusCode)
	}
	sess := decode[SessionResponse](t, resp)
	if sess.StableTempC != 70 {
		t.Errorf("stable = %v, want 70 (explicit)", sess.StableTempC)
	}
}

func TestSessionValidationErrors(t *testing.T) {
	_, ts, _ := newTestServer(t)
	// Neither stable nor features.
	resp := postJSON(t, ts.URL+"/v1/session", SessionRequest{Phi0: 20})
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("no-anchor status = %d", resp.StatusCode)
	}
	// Bad lambda.
	stable := 70.0
	resp = postJSON(t, ts.URL+"/v1/session", SessionRequest{
		Phi0: 20, StableTempC: &stable, Lambda: 3,
	})
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("bad lambda status = %d", resp.StatusCode)
	}
	// Bad features.
	resp = postJSON(t, ts.URL+"/v1/session", SessionRequest{
		Phi0: 20, Features: []float64{1},
	})
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("bad features status = %d", resp.StatusCode)
	}
}

func TestObservePredictUnknownSession(t *testing.T) {
	_, ts, _ := newTestServer(t)
	resp := postJSON(t, ts.URL+"/v1/session/ghost/observe", ObserveRequest{T: 0, TempC: 20})
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("observe unknown status = %d", resp.StatusCode)
	}
	getResp, err := http.Get(ts.URL + "/v1/session/ghost/predict?t=0")
	if err != nil {
		t.Fatal(err)
	}
	getResp.Body.Close()
	if getResp.StatusCode != http.StatusNotFound {
		t.Errorf("predict unknown status = %d", getResp.StatusCode)
	}
}

// TestPredictBadTimestamp: ?t= is a finite JSON number or the request is the
// client's error — never a 500 from encoding a NaN, never strconv's grammar.
func TestPredictBadTimestamp(t *testing.T) {
	_, ts, _ := newTestServer(t)
	stable := 70.0
	resp := postJSON(t, ts.URL+"/v1/session", SessionRequest{Phi0: 20, StableTempC: &stable})
	sess := decode[SessionResponse](t, resp)
	for _, c := range []struct {
		t    string
		want int
	}{
		{"abc", 400}, {"NaN", 400}, {"Inf", 400}, {"-inf", 400}, {"infinity", 400}, {"0x1p-2", 400}, {"1_0", 400},
		{"1e400", 400}, {"", 400}, {"+1", 400}, {"1.", 400}, {"30 ", 400},
		{"30", 200}, {"-0.5", 200}, {"1e+06", 200}, {"4.5E1", 200},
	} {
		getResp, err := http.Get(fmt.Sprintf("%s/v1/session/%s/predict?t=%s", ts.URL, sess.ID, url.QueryEscape(c.t)))
		if err != nil {
			t.Fatal(err)
		}
		getResp.Body.Close()
		if getResp.StatusCode != c.want {
			t.Errorf("t=%q: status %d, want %d", c.t, getResp.StatusCode, c.want)
		}
	}
}

func TestStableBatchRoundTrip(t *testing.T) {
	_, ts, rec := newTestServer(t)
	const n = 24
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = rec.Features
	}
	resp := postJSON(t, ts.URL+"/v1/stable/batch", StableBatchRequest{Rows: rows})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	body := decode[StableBatchResponse](t, resp)
	if len(body.StableTempsC) != n {
		t.Fatalf("got %d predictions, want %d", len(body.StableTempsC), n)
	}
	// Every row is identical, so every prediction must match the single
	// endpoint's answer.
	single := postJSON(t, ts.URL+"/v1/predict/stable", StableRequest{Features: rec.Features})
	want := decode[StableResponse](t, single).StableTempC
	for i, v := range body.StableTempsC {
		if math.Abs(v-want) > 1e-6 {
			t.Errorf("row %d: batch %v vs single %v", i, v, want)
		}
	}
}

func TestStableBatchBadRows(t *testing.T) {
	_, ts, rec := newTestServer(t)
	resp := postJSON(t, ts.URL+"/v1/stable/batch",
		StableBatchRequest{Rows: [][]float64{rec.Features, {1, 2}}})
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("ragged batch status = %d", resp.StatusCode)
	}
	resp = postJSON(t, ts.URL+"/v1/stable/batch", StableBatchRequest{})
	if resp.StatusCode != http.StatusOK {
		t.Errorf("empty batch status = %d", resp.StatusCode)
	}
	body := decode[StableBatchResponse](t, resp)
	if len(body.StableTempsC) != 0 {
		t.Errorf("empty batch returned %d predictions", len(body.StableTempsC))
	}
}

func TestSessionBatchObservePredict(t *testing.T) {
	_, ts, _ := newTestServer(t)

	// Open three sessions with distinct anchors.
	ids := make([]string, 3)
	for i := range ids {
		stable := 50.0 + 10*float64(i)
		resp := postJSON(t, ts.URL+"/v1/session", SessionRequest{Phi0: 20, StableTempC: &stable})
		ids[i] = decode[SessionResponse](t, resp).ID
	}

	// Batch-observe all three plus one ghost id: per-item errors, not a
	// request-level failure.
	obsReq := ObserveBatchRequest{Items: []ObserveBatchItem{
		{ID: ids[0], T: 0, TempC: 24},
		{ID: ids[1], T: 0, TempC: 26},
		{ID: "ghost", T: 0, TempC: 30},
		{ID: ids[2], T: 0, TempC: 28},
	}}
	resp := postJSON(t, ts.URL+"/v1/session/batch/observe", obsReq)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("observe batch status = %d", resp.StatusCode)
	}
	obs := decode[ObserveBatchResponse](t, resp)
	if len(obs.Results) != 4 {
		t.Fatalf("got %d results, want 4", len(obs.Results))
	}
	// First observation at t=0: γ = λ·(φ − curve(0)) = 0.8·(temp − 20).
	for i, want := range []float64{0.8 * 4, 0.8 * 6, 0, 0.8 * 8} {
		if i == 2 {
			if obs.Results[i].Error == "" {
				t.Error("ghost observe succeeded")
			}
			continue
		}
		if obs.Results[i].Error != "" {
			t.Errorf("item %d error: %s", i, obs.Results[i].Error)
		}
		if math.Abs(obs.Results[i].Gamma-want) > 1e-9 {
			t.Errorf("item %d gamma = %v, want %v", i, obs.Results[i].Gamma, want)
		}
	}

	// Batch-predict mirrors the single endpoint.
	predReq := PredictBatchRequest{Items: []PredictBatchItem{
		{ID: ids[0], T: 0},
		{ID: "ghost", T: 0},
		{ID: ids[1], T: 0},
	}}
	resp = postJSON(t, ts.URL+"/v1/session/batch/predict", predReq)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict batch status = %d", resp.StatusCode)
	}
	preds := decode[PredictBatchResponse](t, resp)
	if len(preds.Results) != 3 {
		t.Fatalf("got %d results, want 3", len(preds.Results))
	}
	if preds.Results[1].Error == "" {
		t.Error("ghost predict succeeded")
	}
	for _, i := range []int{0, 2} {
		id := predReq.Items[i].ID
		single, err := http.Get(fmt.Sprintf("%s/v1/session/%s/predict?t=0", ts.URL, id))
		if err != nil {
			t.Fatal(err)
		}
		want := decode[PredictResponse](t, single)
		if preds.Results[i].Error != "" {
			t.Errorf("item %d error: %s", i, preds.Results[i].Error)
		}
		if preds.Results[i].TempC != want.TempC || preds.Results[i].Gamma != want.Gamma {
			t.Errorf("item %d: batch %+v vs single %+v", i, preds.Results[i], want)
		}
	}
}

func TestBatchTooLarge(t *testing.T) {
	_, ts, _ := newTestServer(t)
	items := make([]PredictBatchItem, MaxBatchItems+1)
	resp := postJSON(t, ts.URL+"/v1/session/batch/predict", PredictBatchRequest{Items: items})
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized batch status = %d", resp.StatusCode)
	}
}

// TestConcurrentBatchEndpoints drives the batch HTTP surface from many
// goroutines at once to exercise the worker pool and striped locks together.
func TestConcurrentBatchEndpoints(t *testing.T) {
	_, ts, rec := newTestServer(t)

	// A shared pool of sessions.
	const nSessions = 12
	ids := make([]string, nSessions)
	for i := range ids {
		stable := 55.0
		resp := postJSON(t, ts.URL+"/v1/session", SessionRequest{Phi0: 20, StableTempC: &stable})
		ids[i] = decode[SessionResponse](t, resp).ID
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 5; round++ {
				obs := ObserveBatchRequest{}
				for i, id := range ids {
					obs.Items = append(obs.Items, ObserveBatchItem{
						ID: id, T: float64(round * 15), TempC: 25 + float64(i),
					})
				}
				r1 := postJSON(t, ts.URL+"/v1/session/batch/observe", obs)
				if r1.StatusCode != http.StatusOK {
					t.Errorf("observe status = %d", r1.StatusCode)
				}
				r1.Body.Close()

				pred := PredictBatchRequest{}
				for _, id := range ids {
					pred.Items = append(pred.Items, PredictBatchItem{ID: id, T: float64(round * 15)})
				}
				r2 := postJSON(t, ts.URL+"/v1/session/batch/predict", pred)
				if r2.StatusCode != http.StatusOK {
					t.Errorf("predict status = %d", r2.StatusCode)
				}
				r2.Body.Close()

				rows := make([][]float64, 16)
				for i := range rows {
					rows[i] = rec.Features
				}
				r3 := postJSON(t, ts.URL+"/v1/stable/batch", StableBatchRequest{Rows: rows})
				if r3.StatusCode != http.StatusOK {
					t.Errorf("stable batch status = %d", r3.StatusCode)
				}
				r3.Body.Close()
			}
		}(g)
	}
	wg.Wait()
}

func TestConcurrentSessions(t *testing.T) {
	srv, ts, _ := newTestServer(t)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			stable := 60.0
			resp := postJSON(t, ts.URL+"/v1/session", SessionRequest{Phi0: 20, StableTempC: &stable})
			sess := decode[SessionResponse](t, resp)
			for j := 0; j < 20; j++ {
				r := postJSON(t, fmt.Sprintf("%s/v1/session/%s/observe", ts.URL, sess.ID),
					ObserveRequest{T: float64(j * 15), TempC: 30 + float64(j)})
				r.Body.Close()
				g, err := http.Get(fmt.Sprintf("%s/v1/session/%s/predict?t=%d", ts.URL, sess.ID, j*15))
				if err != nil {
					t.Error(err)
					return
				}
				g.Body.Close()
			}
		}()
	}
	wg.Wait()
	if srv.SessionCount() != 8 {
		t.Errorf("session count = %d, want 8", srv.SessionCount())
	}
}

func TestRoutePatternsMatchServedHandler(t *testing.T) {
	srv, ts, _ := newTestServer(t)
	patterns := srv.RoutePatterns()
	if len(patterns) == 0 {
		t.Fatal("no route patterns")
	}
	seen := map[string]bool{}
	for _, p := range patterns {
		if seen[p] {
			t.Fatalf("duplicate route pattern %q", p)
		}
		seen[p] = true
		method, path, ok := strings.Cut(p, " ")
		if !ok || !strings.HasPrefix(path, "/") {
			t.Fatalf("pattern %q is not \"METHOD /path\"", p)
		}
		switch method {
		case "GET", "POST", "DELETE":
		default:
			t.Fatalf("pattern %q has unexpected method", p)
		}
	}
	// The served mux must know every listed pattern: probing with the
	// wrong method must answer 405 (pattern exists), never 404.
	for _, p := range patterns {
		method, path, _ := strings.Cut(p, " ")
		probe := "POST"
		if method == "POST" {
			probe = "DELETE"
		}
		path = strings.NewReplacer("{id}", "probe").Replace(path)
		req, err := http.NewRequest(probe, ts.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == 404 {
			t.Fatalf("route %q listed but not served (404 on %s %s)", p, probe, path)
		}
	}
}

// TestStableRoutesAnswerTheSameBytes: POST /v1/predict/stable and a one-row
// POST /v1/stable/batch evaluate the same kernel, so for the same features
// the number on the wire is the same bytes.
func TestStableRoutesAnswerTheSameBytes(t *testing.T) {
	_, ts, rec := newTestServer(t)
	body := func(resp *http.Response) string {
		t.Helper()
		defer resp.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d, read error %v: %s", resp.StatusCode, err, buf.String())
		}
		return strings.TrimSpace(buf.String())
	}
	single := body(postJSON(t, ts.URL+"/v1/predict/stable", StableRequest{Features: rec.Features}))
	batch := body(postJSON(t, ts.URL+"/v1/stable/batch", StableBatchRequest{Rows: [][]float64{rec.Features}}))
	number, ok := strings.CutPrefix(single, `{"stable_temp_c":`)
	if number, ok = strings.CutSuffix(number, "}"); !ok {
		t.Fatalf("single response %q", single)
	}
	if want := `{"stable_temps_c":[` + number + `]}`; batch != want {
		t.Errorf("one-row batch answered %s, the single route %s", batch, single)
	}
}
