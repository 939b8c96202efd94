package predictserver

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"vmtherm/internal/fleet"
)

// streamingFleet builds a streaming-ingest controller with one overloaded
// machine, run until the hotspot set is non-empty (so the live index has
// been reconciled against a real recompute at least once).
func streamingFleet(t *testing.T) (*fleet.Controller, fleet.Config) {
	t.Helper()
	cfg := fleet.DefaultConfig()
	cfg.Racks = 1
	cfg.HostsPerRack = 4
	cfg.ThresholdC = 70
	cfg.MaxMigrationsPerRound = 0
	cfg.StreamingIngest = true
	cfg.Seed = 23
	ctl, err := fleet.New(cfg, fleet.SyntheticStablePredictor(75))
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 6; v++ {
		if err := ctl.PlaceAt("r0-h0", fleet.HeavyVMSpec(fmt.Sprintf("hot-%02d", v), 4, 8)); err != nil {
			t.Fatal(err)
		}
	}
	for round := 0; round < 40; round++ {
		rep, err := ctl.RunRound()
		if err != nil {
			t.Fatal(err)
		}
		if rep.Hotspots > 0 {
			return ctl, cfg
		}
	}
	t.Fatal("fleet never produced a hotspot")
	return nil, cfg
}

// TestFleetIngestPredictRequiresStreaming: predict: true against a
// round-based (non-streaming) control plane is a typed 409, not a silent
// empty prediction list.
func TestFleetIngestPredictRequiresStreaming(t *testing.T) {
	m, _ := testModel(t)
	ctl := hotFleet(t)
	srv, err := New(m, WithFleet(ctl))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	resp := postJSON(t, ts.URL+"/v1/fleet/ingest", FleetIngestRequest{
		Predict:  true,
		Readings: []FleetReading{{HostID: "r0-h0", AtS: 1, TempC: 50}},
	})
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("predict without streaming: got %d, want 409", resp.StatusCode)
	}
	// Without predict the same request still ingests fine.
	resp = postJSON(t, ts.URL+"/v1/fleet/ingest", FleetIngestRequest{
		Readings: []FleetReading{{HostID: "r0-h0", AtS: 1, TempC: 50}},
	})
	out := decode[FleetIngestResponse](t, resp)
	if out.Accepted != 1 || len(out.Predictions) != 0 {
		t.Fatalf("plain ingest on non-streaming fleet: %+v", out)
	}
}

// TestFleetIngestPredictEndpoint drives the synchronous-predictive path
// end to end: the 200 carries per-reading predictions, the live hotspot
// index reflects the push immediately, and the streaming counters surface
// in /metrics.
func TestFleetIngestPredictEndpoint(t *testing.T) {
	m, _ := testModel(t)
	ctl, cfg := streamingFleet(t)
	srv, err := New(m, WithFleet(ctl))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	// Timestamp past the session's calibration schedule so the arrival
	// calibrates before predicting; an unknown host on a simulated fleet is
	// deferred to the next round (its anchors are not in the warm cache's
	// namespace).
	at := snapshotOf(ctl).SimTimeS + cfg.UpdateEveryS + 5
	resp := postJSON(t, ts.URL+"/v1/fleet/ingest", FleetIngestRequest{
		Predict: true,
		Readings: []FleetReading{
			{HostID: "r0-h1", AtS: at, TempC: 88, Util: 0.9, MemFrac: 0.5},
			{HostID: "ghost", AtS: at, TempC: 40, Util: 0.2, MemFrac: 0.2},
		},
	})
	out := decode[FleetIngestResponse](t, resp)
	if out.Accepted != 2 || out.Dropped != 0 {
		t.Fatalf("accounting = %+v, want accepted 2 dropped 0", out)
	}
	if out.Streamed != 1 || out.Deferred != 1 {
		t.Fatalf("streaming accounting = %+v, want streamed 1 deferred 1", out)
	}
	if len(out.Predictions) != 2 {
		t.Fatalf("got %d predictions, want 2 (one per reading)", len(out.Predictions))
	}
	pr := out.Predictions[0]
	if pr.HostID != "r0-h1" || pr.Outcome != "streamed" || pr.PredictedTempC <= 0 {
		t.Fatalf("streamed prediction = %+v", pr)
	}
	if out.Predictions[1].Outcome != "deferred" || out.Predictions[1].PredictedTempC != 0 {
		t.Fatalf("deferred prediction = %+v", out.Predictions[1])
	}

	// The hotspots endpoint now serves the live incremental index.
	hresp, err := http.Get(ts.URL + "/v1/fleet/hotspots")
	if err != nil {
		t.Fatal(err)
	}
	hot := decode[FleetHotspotsResponse](t, hresp)
	if !hot.Streaming {
		t.Fatal("hotspots response not marked streaming")
	}
	if len(hot.Hotspots) == 0 {
		t.Fatal("live hotspot index empty despite overloaded host")
	}
	for i := 1; i < len(hot.Hotspots); i++ {
		if hot.Hotspots[i].MarginC > hot.Hotspots[i-1].MarginC {
			t.Fatalf("live hotspots not sorted by descending margin: %+v", hot.Hotspots)
		}
	}
	// The pushed reading must be visible exactly when its fresh prediction
	// crossed the threshold — no waiting for the next round either way.
	var inIndex bool
	for _, h := range hot.Hotspots {
		if h.HostID == "r0-h1" {
			inIndex = true
			if h.PredictedTempC != pr.PredictedTempC {
				t.Fatalf("index temp %v != synchronous prediction %v", h.PredictedTempC, pr.PredictedTempC)
			}
		}
	}
	if want := pr.PredictedTempC > hot.ThresholdC; inIndex != want {
		t.Fatalf("pushed host in index = %v, want %v (predicted %v vs threshold %v)",
			inIndex, want, pr.PredictedTempC, hot.ThresholdC)
	}

	// Streaming families in the exposition.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	raw, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	exposition := string(raw)
	for _, want := range []string{
		"vmtherm_ingest_stream_applied_total 1",
		"vmtherm_ingest_stream_deferred_total 1",
		"vmtherm_ingest_stream_predictions_total 1",
		"vmtherm_hotspot_staleness_seconds",
	} {
		if !strings.Contains(exposition, want) {
			t.Fatalf("metrics missing %q", want)
		}
	}
}
