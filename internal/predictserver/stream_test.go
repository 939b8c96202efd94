package predictserver

import (
	"cmp"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
)

// TestFirstPushServesPublishedHotspotsPlusReading: on a fleet that has run
// rounds but never been pushed to, hotspots come from the round, and the
// first push — predict: true answers 200 with per-reading outcomes — builds
// the live index at once: the published hotspots plus the pushed reading.
func TestFirstPushServesPublishedHotspotsPlusReading(t *testing.T) {
	m, _ := testModel(t)
	ctl := hotFleet(t)
	srv, err := New(m, WithFleet(ctl))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	getHot := func() FleetHotspotsResponse {
		resp, err := http.Get(ts.URL + "/v1/fleet/hotspots")
		if err != nil {
			t.Fatal(err)
		}
		return decode[FleetHotspotsResponse](t, resp)
	}

	before := getHot()
	if before.Streaming || len(before.Hotspots) == 0 {
		t.Fatalf("before any push: %+v, want the round's non-empty hotspots", before)
	}
	const host = "r0-h3"
	for _, h := range before.Hotspots {
		if h.HostID == host {
			t.Fatalf("%s already hot before the push: %+v", host, before.Hotspots)
		}
	}
	at := before.SimTimeS + ctl.Config().UpdateEveryS + 5
	resp := postJSON(t, ts.URL+"/v1/fleet/ingest", FleetIngestRequest{
		Predict:  true,
		Readings: []FleetReading{{HostID: host, AtS: at, TempC: 95, Util: 0.9, MemFrac: 0.5}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict: true answered %d, want 200", resp.StatusCode)
	}
	out := decode[FleetIngestResponse](t, resp)
	if len(out.Predictions) != 1 || out.Predictions[0].Outcome != "streamed" || out.Predictions[0].PredictedTempC <= before.ThresholdC {
		t.Fatalf("first push answered %+v, want one hot streamed prediction", out)
	}

	after := getHot()
	if !after.Streaming {
		t.Fatal("hotspots after the first push not served by the live index")
	}
	want := append(slices.Clone(before.Hotspots), FleetHotspot{
		HostID:         host,
		PredictedTempC: out.Predictions[0].PredictedTempC,
		MarginC:        out.Predictions[0].PredictedTempC - before.ThresholdC,
		UncertaintyC:   out.Predictions[0].UncertaintyC,
	})
	slices.SortFunc(want, func(a, b FleetHotspot) int {
		if c := cmp.Compare(b.MarginC, a.MarginC); c != 0 {
			return c
		}
		return strings.Compare(a.HostID, b.HostID)
	})
	if !slices.Equal(after.Hotspots, want) {
		t.Fatalf("hotspots after the first push:\n got %+v\nwant %+v", after.Hotspots, want)
	}
}

// TestFleetIngestPredictEndpoint drives the synchronous-predictive path
// end to end: the 200 carries per-reading predictions, the live hotspot
// index reflects the push immediately, and the streaming counters surface
// in /metrics.
func TestFleetIngestPredictEndpoint(t *testing.T) {
	m, _ := testModel(t)
	ctl := hotFleet(t)
	cfg := ctl.Config()
	srv, err := New(m, WithFleet(ctl))
	if err != nil {
		t.Fatal(err)
	}
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
