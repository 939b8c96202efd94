package predictserver

import (
	"fmt"
	"io"
	"maps"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"vmtherm/internal/fleet"
)

// snapshotOf copies the published snapshot out of its ViewSnapshot borrow,
// for tests that inspect one after the call.
func snapshotOf(ctl *fleet.Controller) (out fleet.Snapshot) {
	ctl.ViewSnapshot(func(s *fleet.Snapshot) {
		out = *s
		out.Hotspots = slices.Clone(s.Hotspots)
		out.StaleHosts = slices.Clone(s.StaleHosts)
		out.Predicted = maps.Clone(s.Predicted)
		out.Latest = maps.Clone(s.Latest)
	})
	return out
}

// hotFleet builds a 1-rack/4-host controller with one overloaded machine
// and runs it until the hotspot map is non-empty.
func hotFleet(t *testing.T) *fleet.Controller {
	t.Helper()
	cfg := fleet.DefaultConfig()
	cfg.Racks = 1
	cfg.HostsPerRack = 4
	cfg.ThresholdC = 70
	cfg.MaxMigrationsPerRound = 0
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
			return ctl
		}
	}
	t.Fatal("fleet never produced a hotspot")
	return nil
}

func TestFleetEndpointsUnavailableWithoutController(t *testing.T) {
	_, ts, _ := newTestServer(t)
	resp, err := http.Get(ts.URL + "/v1/fleet/hotspots")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("hotspots without fleet: got %d, want 503", resp.StatusCode)
	}
	resp = postJSON(t, ts.URL+"/v1/fleet/place", FleetPlaceRequest{ID: "x", VCPUs: 1, MemoryGB: 1})
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("place without fleet: got %d, want 503", resp.StatusCode)
	}
	resp = postJSON(t, ts.URL+"/v1/fleet/place/batch", FleetPlaceBatchRequest{
		VMs: []FleetPlaceRequest{{ID: "x", VCPUs: 1, MemoryGB: 1}},
	})
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("batch place without fleet: got %d, want 503", resp.StatusCode)
	}
}

func TestFleetHotspotsEndpoint(t *testing.T) {
	m, _ := testModel(t)
	ctl := hotFleet(t)
	srv, err := New(m, WithFleet(ctl))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	resp, err := http.Get(ts.URL + "/v1/fleet/hotspots")
	if err != nil {
		t.Fatal(err)
	}
	out := decode[FleetHotspotsResponse](t, resp)
	if out.Round == 0 {
		t.Fatal("snapshot round not populated")
	}
	if len(out.Hotspots) == 0 {
		t.Fatal("hotspot map empty despite overloaded host")
	}
	if out.Hotspots[0].HostID != "r0-h0" {
		t.Fatalf("hottest host %q, want r0-h0", out.Hotspots[0].HostID)
	}
	if out.Hotspots[0].MarginC <= 0 || out.Hotspots[0].PredictedTempC <= out.ThresholdC {
		t.Fatalf("implausible hotspot %+v under threshold %v", out.Hotspots[0], out.ThresholdC)
	}
	// Margins must come back sorted descending (API determinism contract).
	for i := 1; i < len(out.Hotspots); i++ {
		if out.Hotspots[i].MarginC > out.Hotspots[i-1].MarginC {
			t.Fatalf("hotspots not sorted by descending margin: %+v", out.Hotspots)
		}
	}
}

func TestFleetPlaceEndpoint(t *testing.T) {
	m, _ := testModel(t)
	ctl := hotFleet(t)
	srv, err := New(m, WithFleet(ctl))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	resp := postJSON(t, ts.URL+"/v1/fleet/place", FleetPlaceRequest{
		ID: "tenant-1", VCPUs: 2, MemoryGB: 4,
		Tasks: []FleetTaskSpec{{CPUFraction: 0.8, MemGB: 1}},
	})
	out := decode[FleetPlaceResponse](t, resp)
	if out.Status != "placed" || out.HostID == "" || out.HostID == "r0-h0" {
		t.Fatalf("placement landed on %q (status %q)", out.HostID, out.Status)
	}
	if out.VMID != "tenant-1" {
		t.Fatalf("vm id %q, want tenant-1", out.VMID)
	}

	// Missing id → 422.
	resp = postJSON(t, ts.URL+"/v1/fleet/place", FleetPlaceRequest{VCPUs: 1, MemoryGB: 1})
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("missing id: got %d, want 422", resp.StatusCode)
	}
	// Count > 1 belongs on the batch endpoint → 422.
	resp = postJSON(t, ts.URL+"/v1/fleet/place", FleetPlaceRequest{ID: "multi", VCPUs: 1, MemoryGB: 1, Count: 2})
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("count>1 on single endpoint: got %d, want 422", resp.StatusCode)
	}
	// A shape that can never fit → 422 with a typed reject code.
	resp = postJSON(t, ts.URL+"/v1/fleet/place", FleetPlaceRequest{ID: "huge", VCPUs: 4096, MemoryGB: 4096})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		resp.Body.Close()
		t.Fatalf("impossible placement: got %d, want 422", resp.StatusCode)
	}
	body := decode[map[string]string](t, resp)
	if body["reject_code"] != "infeasible" || body["error"] == "" {
		t.Fatalf("rejection body = %v, want reject_code=infeasible", body)
	}
	// Duplicate id → 409 duplicate-id.
	resp = postJSON(t, ts.URL+"/v1/fleet/place", FleetPlaceRequest{
		ID: "tenant-1", VCPUs: 2, MemoryGB: 4,
		Tasks: []FleetTaskSpec{{CPUFraction: 0.8, MemGB: 1}},
	})
	if resp.StatusCode != http.StatusConflict {
		resp.Body.Close()
		t.Fatalf("duplicate placement: got %d, want 409", resp.StatusCode)
	}
	body = decode[map[string]string](t, resp)
	if body["reject_code"] != "duplicate-id" {
		t.Fatalf("rejection body = %v, want reject_code=duplicate-id", body)
	}
}

// TestFleetPlaceBatchEndpoint drives the batch path: per-item typed
// decisions in request order (Count expansion included), 200 regardless of
// rejections, and the place counters surfacing in /metrics.
func TestFleetPlaceBatchEndpoint(t *testing.T) {
	m, _ := testModel(t)
	ctl := hotFleet(t)
	srv, err := New(m, WithFleet(ctl))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	resp := postJSON(t, ts.URL+"/v1/fleet/place/batch", FleetPlaceBatchRequest{
		VMs: []FleetPlaceRequest{
			{ID: "storm", VCPUs: 1, MemoryGB: 2, Count: 2,
				Tasks: []FleetTaskSpec{{CPUFraction: 0.3, MemGB: 0.5}}},
			{ID: "giant", VCPUs: 4096, MemoryGB: 4096},
		},
	})
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		t.Fatalf("batch place: got %d, want 200", resp.StatusCode)
	}
	out := decode[FleetPlaceBatchResponse](t, resp)
	wantIDs := []string{"storm-000", "storm-001", "giant"}
	if len(out.Results) != len(wantIDs) {
		t.Fatalf("got %d results, want %d", len(out.Results), len(wantIDs))
	}
	for i, r := range out.Results {
		if r.VMID != wantIDs[i] {
			t.Fatalf("result %d vm_id %q, want %q", i, r.VMID, wantIDs[i])
		}
		if r.Status == "rejected" && r.RejectCode == "" {
			t.Fatalf("stringly-typed rejection: %+v", r)
		}
	}
	if out.Placed != 2 || out.Rejected != 1 || out.Queued != 0 {
		t.Fatalf("totals = %d/%d/%d, want 2/0/1", out.Placed, out.Queued, out.Rejected)
	}
	if out.Results[2].RejectCode != "infeasible" {
		t.Fatalf("giant decision = %+v", out.Results[2])
	}

	// A malformed item fails the whole batch up front.
	resp = postJSON(t, ts.URL+"/v1/fleet/place/batch", FleetPlaceBatchRequest{
		VMs: []FleetPlaceRequest{{VCPUs: 1, MemoryGB: 1, Count: 2}},
	})
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("missing-id batch: got %d, want 422", resp.StatusCode)
	}

	// Counts are limited as they accumulate: two that wrap an int sum to -2
	// used to pass the limit check and panic in make.
	resp = postJSON(t, ts.URL+"/v1/fleet/place/batch", FleetPlaceBatchRequest{
		VMs: []FleetPlaceRequest{
			{ID: "a", VCPUs: 1, MemoryGB: 1, Count: math.MaxInt},
			{ID: "b", VCPUs: 1, MemoryGB: 1, Count: math.MaxInt},
		},
	})
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		resp.Body.Close()
		t.Fatalf("overflowing counts: got %d, want 413", resp.StatusCode)
	}
	if msg := decode[map[string]string](t, resp); !strings.Contains(msg["error"], "exceeds limit") {
		t.Fatalf("overflowing counts: error body %v", msg)
	}

	// The decisions must surface in the exposition counters.
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
		"vmtherm_place_placed_total 2",
		"vmtherm_place_rejected_total 1",
		"vmtherm_place_batch_size 3",
	} {
		if !strings.Contains(exposition, want) {
			t.Fatalf("metrics missing %q", want)
		}
	}
}
