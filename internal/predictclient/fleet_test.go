package predictclient

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"vmtherm/internal/fleet"
	"vmtherm/internal/predictserver"
)

// fleetTestServer stands up a predict service with an attached control
// plane whose single overloaded host is already flagged.
func fleetTestServer(t *testing.T) *Client {
	t.Helper()
	cfg := fleet.DefaultConfig()
	cfg.Racks = 1
	cfg.HostsPerRack = 4
	cfg.ThresholdC = 70
	cfg.MaxMigrationsPerRound = 0
	cfg.Seed = 29
	ctl, err := fleet.New(cfg, fleet.SyntheticStablePredictor(75))
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 6; v++ {
		if err := ctl.PlaceAt("r0-h0", fleet.HeavyVMSpec(fmt.Sprintf("hot-%02d", v), 4, 8)); err != nil {
			t.Fatal(err)
		}
	}
	hot := false
	for round := 0; round < 40 && !hot; round++ {
		rep, err := ctl.RunRound()
		if err != nil {
			t.Fatal(err)
		}
		hot = rep.Hotspots > 0
	}
	if !hot {
		t.Fatal("fleet never produced a hotspot")
	}

	client, _ := testServerWithFleet(t, ctl)
	return client
}

func testServerWithFleet(t *testing.T, ctl *fleet.Controller) (*Client, *predictserver.Server) {
	t.Helper()
	// Reuse the shared trained model from testServer's once-guard by
	// building it the same way.
	_, _ = testServer(t)
	srv, err := predictserver.New(model, predictserver.WithFleet(ctl))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	client, err := New(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	return client, srv
}

func TestFleetHotspotsRoundTrip(t *testing.T) {
	client := fleetTestServer(t)
	snap, err := client.FleetHotspots(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if snap.Round == 0 || len(snap.Hotspots) == 0 {
		t.Fatalf("empty snapshot: %+v", snap)
	}
	if snap.Hotspots[0].HostID != "r0-h0" {
		t.Fatalf("hottest host %q, want r0-h0", snap.Hotspots[0].HostID)
	}
	if snap.GapS <= 0 || snap.ThresholdC <= 0 {
		t.Fatalf("snapshot missing parameters: %+v", snap)
	}
}

func TestFleetPlaceRoundTrip(t *testing.T) {
	client := fleetTestServer(t)
	dec, err := client.FleetPlace(context.Background(), predictserver.FleetPlaceRequest{
		ID: "tenant-9", VCPUs: 2, MemoryGB: 4,
		Tasks: []predictserver.FleetTaskSpec{{CPUFraction: 0.7, MemGB: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if dec.Status != "placed" || dec.HostID == "" || dec.HostID == "r0-h0" {
		t.Fatalf("placed on %q (status %q)", dec.HostID, dec.Status)
	}

	// A shape that can never fit → typed PlaceError (422, infeasible) that
	// still unwraps to the plain APIError.
	_, err = client.FleetPlace(context.Background(), predictserver.FleetPlaceRequest{
		ID: "huge", VCPUs: 4096, MemoryGB: 4096,
	})
	var placeErr *PlaceError
	if !errors.As(err, &placeErr) || placeErr.Code != fleet.RejectInfeasible {
		t.Fatalf("impossible placement: got %v, want PlaceError{infeasible}", err)
	}
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("PlaceError does not unwrap to a 422 APIError: %v", err)
	}
	// A duplicate id → 409 duplicate-id.
	_, err = client.FleetPlace(context.Background(), predictserver.FleetPlaceRequest{
		ID: "tenant-9", VCPUs: 2, MemoryGB: 4,
	})
	if !errors.As(err, &placeErr) || placeErr.Code != fleet.RejectDuplicateID ||
		placeErr.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate placement: got %v, want PlaceError{duplicate-id, 409}", err)
	}
}

// TestFleetPlaceBatchRoundTrip drives the batch endpoint end to end: a
// Count-expanded storm comes back as per-item typed decisions in request
// order, and every rejection carries a RejectCode.
func TestFleetPlaceBatchRoundTrip(t *testing.T) {
	client := fleetTestServer(t)
	resp, err := client.FleetPlaceBatch(context.Background(), []predictserver.FleetPlaceRequest{
		{ID: "batch-a", VCPUs: 1, MemoryGB: 2, Count: 3,
			Tasks: []predictserver.FleetTaskSpec{{CPUFraction: 0.4, MemGB: 0.5}}},
		{ID: "batch-huge", VCPUs: 4096, MemoryGB: 4096},
		{ID: "batch-b", VCPUs: 1, MemoryGB: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 5 {
		t.Fatalf("got %d results, want 5 (count expansion)", len(resp.Results))
	}
	wantIDs := []string{"batch-a-000", "batch-a-001", "batch-a-002", "batch-huge", "batch-b"}
	for i, r := range resp.Results {
		if r.VMID != wantIDs[i] {
			t.Fatalf("result %d vm_id %q, want %q", i, r.VMID, wantIDs[i])
		}
		if r.Status == "rejected" && r.RejectCode == "" {
			t.Fatalf("stringly-typed rejection: %+v", r)
		}
	}
	if resp.Results[3].Status != "rejected" || resp.Results[3].RejectCode != "infeasible" {
		t.Fatalf("huge replica decision = %+v", resp.Results[3])
	}
	if resp.Placed != 4 || resp.Rejected != 1 || resp.Queued != 0 {
		t.Fatalf("totals placed/queued/rejected = %d/%d/%d, want 4/0/1",
			resp.Placed, resp.Queued, resp.Rejected)
	}
}

func TestFleetEndpointsWithoutFleet(t *testing.T) {
	client, _ := testServer(t)
	_, err := client.FleetHotspots(context.Background())
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("hotspots without fleet: got %v, want 503 APIError", err)
	}
}

// TestFleetIngestAndMetrics: the agent-facing push path plus the typed
// metrics view — readings pushed through the client surface in the served
// exposition.
func TestFleetIngestAndMetrics(t *testing.T) {
	client := fleetTestServer(t)
	ctx := context.Background()

	resp, err := client.FleetIngest(ctx, []predictserver.FleetReading{
		{HostID: "r0-h0", AtS: 1, TempC: 44, Util: 0.5},
		{HostID: "r0-h3", AtS: 1, TempC: 39},
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Accepted != 2 || resp.Dropped != 0 {
		t.Fatalf("ingest response = %+v", resp)
	}

	points, err := client.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]float64{}
	for _, p := range points {
		if len(p.Labels) == 0 {
			byName[p.Name] = p.Value
		}
		if p.Name == "vmtherm_items_total" && p.Label("kind") == "ingest" {
			byName["ingest_items"] = p.Value
		}
	}
	if byName["ingest_items"] != 2 {
		t.Fatalf("ingest items = %v, want 2", byName["ingest_items"])
	}
	if _, ok := byName["vmtherm_ingest_received_total"]; !ok {
		t.Fatal("fleet-attached server missing ingest counters")
	}
	if _, ok := byName["vmtherm_fleet_round"]; !ok {
		t.Fatal("metrics missing fleet round gauge")
	}
}

// TestFleetIngestPredictRoundTrip: the synchronous-predictive push — one
// round-trip carries the reading in and the fresh prediction back.
func TestFleetIngestPredictRoundTrip(t *testing.T) {
	cfg := fleet.DefaultConfig()
	cfg.Racks = 1
	cfg.HostsPerRack = 4
	cfg.ThresholdC = 70
	cfg.MaxMigrationsPerRound = 0
	cfg.Seed = 29
	ctl, err := fleet.New(cfg, fleet.SyntheticStablePredictor(75))
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		if _, err := ctl.RunRound(); err != nil {
			t.Fatal(err)
		}
	}
	client, _ := testServerWithFleet(t, ctl)
	ctx := context.Background()

	// Past the calibration schedule so the arrival calibrates first.
	var at float64
	ctl.ViewSnapshot(func(s *fleet.Snapshot) { at = s.SimTimeS + cfg.UpdateEveryS + 1 })
	resp, err := client.FleetIngestPredict(ctx, []predictserver.FleetReading{
		{HostID: "r0-h1", AtS: at, TempC: 55, Util: 0.6, MemFrac: 0.3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Accepted != 1 || resp.Streamed != 1 {
		t.Fatalf("predictive ingest accounting = %+v", resp)
	}
	if len(resp.Predictions) != 1 {
		t.Fatalf("got %d predictions, want 1", len(resp.Predictions))
	}
	p := resp.Predictions[0]
	if p.HostID != "r0-h1" || p.Outcome != "streamed" || p.PredictedTempC <= 0 {
		t.Fatalf("prediction = %+v", p)
	}
}
