package predictclient

import (
	"context"
	"errors"
	"math"
	"net/http/httptest"
	"sync"
	"testing"

	"vmtherm/internal/core"
	"vmtherm/internal/dataset"
	"vmtherm/internal/predictserver"
	"vmtherm/internal/workload"
)

var (
	modelOnce sync.Once
	model     *core.StablePredictor
	modelRec  dataset.Record
	modelErr  error
)

func testServer(t *testing.T) (*Client, dataset.Record) {
	t.Helper()
	modelOnce.Do(func() {
		cases, err := workload.GenerateCases(workload.DefaultGenOptions(), 19, "pc", 30)
		if err != nil {
			modelErr = err
			return
		}
		recs, err := dataset.Build(context.Background(), cases, dataset.DefaultBuildOptions(19))
		if err != nil {
			modelErr = err
			return
		}
		model, modelErr = core.TrainStable(context.Background(), recs, core.FastStableConfig())
		if modelErr == nil {
			modelRec = recs[0]
		}
	})
	if modelErr != nil {
		t.Fatal(modelErr)
	}
	srv, err := predictserver.New(model)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	client, err := New(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	return client, modelRec
}

func TestNewValidation(t *testing.T) {
	if _, err := New("://bad"); err == nil {
		t.Error("bad url should fail")
	}
	if _, err := New("ftp://host"); err == nil {
		t.Error("non-http scheme should fail")
	}
	if _, err := New("http://localhost:1"); err != nil {
		t.Error(err)
	}
}

func TestHealthy(t *testing.T) {
	c, _ := testServer(t)
	if err := c.Healthy(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestPredictStableRoundTrip(t *testing.T) {
	c, rec := testServer(t)
	got, err := c.PredictStable(context.Background(), rec.Features)
	if err != nil {
		t.Fatal(err)
	}
	want, err := model.PredictFeatures(rec.Features)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("client %v vs direct %v", got, want)
	}
}

func TestPredictStableAPIError(t *testing.T) {
	c, _ := testServer(t)
	_, err := c.PredictStable(context.Background(), []float64{1})
	var apiErr *APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("err = %v, want *APIError", err)
	}
	if apiErr.StatusCode != 422 {
		t.Errorf("status = %d", apiErr.StatusCode)
	}
	if apiErr.Error() == "" {
		t.Error("empty error text")
	}
}

func TestSessionFlowAgainstLocalPredictor(t *testing.T) {
	c, _ := testServer(t)
	ctx := context.Background()
	stable := 70.0
	sess, err := c.OpenSession(ctx, predictserver.SessionRequest{
		Phi0:        22,
		StableTempC: &stable,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sess.StableTempC != 70 || sess.ID() == "" {
		t.Fatalf("session = %+v", sess)
	}

	// Mirror the remote session locally and verify agreement step by step.
	curve, err := core.NewCurve(22, 70, 600, core.DefaultCurveDelta)
	if err != nil {
		t.Fatal(err)
	}
	local, err := core.NewDynamicPredictor(curve, core.DefaultDynamicConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, step := range []struct{ t, temp float64 }{
		{0, 22}, {15, 30}, {30, 36.5}, {45, 40},
	} {
		gamma, err := sess.Observe(ctx, step.t, step.temp)
		if err != nil {
			t.Fatal(err)
		}
		local.Observe(step.t, step.temp)
		if math.Abs(gamma-local.Gamma()) > 1e-9 {
			t.Fatalf("gamma diverged at t=%v: remote %v local %v", step.t, gamma, local.Gamma())
		}
		remote, err := sess.Predict(ctx, step.t)
		if err != nil {
			t.Fatal(err)
		}
		if want := local.Predict(step.t); math.Abs(remote-want) > 1e-9 {
			t.Fatalf("prediction diverged at t=%v: remote %v local %v", step.t, remote, want)
		}
	}

	// Every finite t reaches the server in its number grammar ('g' form:
	// "1e+06", "1e-07"); a non-finite one is refused before a request exists.
	for _, at := range []float64{1e6, 1e-7, -2.5, 1e21} {
		if _, err := sess.Predict(ctx, at); err != nil {
			t.Errorf("predict at t=%v: %v", at, err)
		}
	}
	for _, at := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		var apiErr *APIError
		if _, err := sess.Predict(ctx, at); err == nil || errors.As(err, &apiErr) {
			t.Errorf("predict at t=%v: err = %v, want a client-side refusal", at, err)
		}
	}

	if err := sess.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Predict(ctx, 60); err == nil {
		t.Error("predict on closed session should fail")
	}
}

func TestPredictStableBatchRoundTrip(t *testing.T) {
	c, rec := testServer(t)
	ctx := context.Background()
	rows := [][]float64{rec.Features, rec.Features, rec.Features}
	got, err := c.PredictStableBatch(ctx, rows)
	if err != nil {
		t.Fatal(err)
	}
	want, err := model.PredictFeatures(rec.Features)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if math.Abs(v-want) > 1e-6 {
			t.Errorf("row %d: batch %v vs direct %v", i, v, want)
		}
	}
	// Bad rows surface as an APIError.
	_, err = c.PredictStableBatch(ctx, [][]float64{{1}})
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != 422 {
		t.Errorf("bad batch err = %v, want 422 APIError", err)
	}
}

func TestSessionBatchRoundTrip(t *testing.T) {
	c, _ := testServer(t)
	ctx := context.Background()
	stable := 65.0
	var ids []string
	for i := 0; i < 3; i++ {
		sess, err := c.OpenSession(ctx, predictserver.SessionRequest{Phi0: 21, StableTempC: &stable})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, sess.ID())
	}

	obs, err := c.ObserveBatch(ctx, []predictserver.ObserveBatchItem{
		{ID: ids[0], T: 0, TempC: 23},
		{ID: ids[1], T: 0, TempC: 25},
		{ID: "ghost", T: 0, TempC: 30},
		{ID: ids[2], T: 0, TempC: 27},
	})
	if err != nil {
		t.Fatal(err)
	}
	// γ after the first observation: λ·(φ − φ0) with φ0 = 21, λ = 0.8.
	for i, want := range []float64{0.8 * 2, 0.8 * 4, 0, 0.8 * 6} {
		if i == 2 {
			if obs[i].Error == "" {
				t.Error("ghost item succeeded")
			}
			continue
		}
		if obs[i].Error != "" || math.Abs(obs[i].Gamma-want) > 1e-9 {
			t.Errorf("item %d = %+v, want gamma %v", i, obs[i], want)
		}
	}

	preds, err := c.PredictBatch(ctx, []predictserver.PredictBatchItem{
		{ID: ids[0], T: 0},
		{ID: "ghost", T: 0},
		{ID: ids[1], T: 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	if preds[1].Error == "" {
		t.Error("ghost item succeeded")
	}
	for _, i := range []int{0, 2} {
		if preds[i].Error != "" {
			t.Errorf("item %d error: %s", i, preds[i].Error)
			continue
		}
		if preds[i].TempC <= 21 || preds[i].TempC > 70 {
			t.Errorf("item %d temp %v implausible", i, preds[i].TempC)
		}
	}
}

func TestSessionOpenValidationError(t *testing.T) {
	c, _ := testServer(t)
	_, err := c.OpenSession(context.Background(), predictserver.SessionRequest{Phi0: 20})
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != 400 {
		t.Fatalf("err = %v, want 400 APIError", err)
	}
}

func TestContextCancellation(t *testing.T) {
	c, rec := testServer(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.PredictStable(ctx, rec.Features); err == nil {
		t.Error("cancelled context should fail")
	}
}
