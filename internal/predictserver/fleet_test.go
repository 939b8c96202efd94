package predictserver

import (
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

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

// TestPlaceInfeasibleShapeIsCheap: a VM shape no host can hold is refused
// before the default task list — one task per vCPU — is built for it. A
// 50-byte body with vcpus 4e6 used to take a second and 1.67 GB before its
// rejection, and vcpus 2e9 to run the daemon out of memory; both routes now
// answer exactly what they answer at vcpus 1000, at once, and a count of
// 65,536 costs what its 65,536 decisions do.
func TestPlaceInfeasibleShapeIsCheap(t *testing.T) {
	m, _ := testModel(t)
	cfg := fleet.DefaultConfig()
	cfg.Racks, cfg.HostsPerRack = 1, 4
	ctl, err := fleet.New(cfg, fleet.SyntheticStablePredictor(75))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(m, WithFleet(ctl))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	h := srv.Handler()
	post := func(path, body string) (rec *httptest.ResponseRecorder, took time.Duration, alloc uint64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		rec = httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		took = time.Since(start)
		runtime.ReadMemStats(&after)
		return rec, took, after.TotalAlloc - before.TotalAlloc
	}
	for _, route := range []struct {
		path, body string
		status     int
	}{
		{"/v1/fleet/place/batch", `{"vms":[{"id":"a","vcpus":%d,"memory_gb":1}]}`, http.StatusOK},
		{"/v1/fleet/place", `{"id":"a","vcpus":%d,"memory_gb":1}`, http.StatusUnprocessableEntity},
	} {
		ref, _, _ := post(route.path, fmt.Sprintf(route.body, 1000))
		if ref.Code != route.status || !strings.Contains(ref.Body.String(), "infeasible") {
			t.Fatalf("%s at vcpus 1000: %d %s", route.path, ref.Code, ref.Body)
		}
		// The reason's "×" goes out as encoding/json writes it, typed or not.
		var out FleetPlaceBatchResponse
		if err := json.Unmarshal(ref.Body.Bytes(), &out); route.status == http.StatusOK &&
			(err != nil || !strings.Contains(ref.Body.String(), "(×1.5)") || ref.Body.String() != string(mustMarshal(t, &out))+"\n") {
			t.Errorf("%s at vcpus 1000: %s (%v)", route.path, ref.Body, err)
		}
		for _, vcpus := range []int{4_000_000, 2_000_000_000} {
			rec, took, alloc := post(route.path, fmt.Sprintf(route.body, vcpus))
			if got := strings.ReplaceAll(rec.Body.String(), strconv.Itoa(vcpus), "1000"); rec.Code != ref.Code || got != ref.Body.String() {
				t.Errorf("%s at vcpus %d: %d %s\n at vcpus 1000: %d %s", route.path, vcpus, rec.Code, rec.Body, ref.Code, ref.Body)
			}
			if took > 10*time.Millisecond || alloc > 1<<20 {
				t.Errorf("%s at vcpus %d: %v and %d KB", route.path, vcpus, took, alloc>>10)
			}
		}
	}

	rec, took, alloc := post("/v1/fleet/place/batch", `{"vms":[{"id":"a","count":65536,"vcpus":2000000000,"memory_gb":1}]}`)
	var out FleetPlaceBatchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil || rec.Code != http.StatusOK {
		t.Fatalf("count 65536: %d (%v)", rec.Code, err)
	}
	if len(out.Results) != MaxBatchItems || out.Rejected != MaxBatchItems {
		t.Fatalf("count 65536: %d results, %d rejected", len(out.Results), out.Rejected)
	}
	for _, d := range out.Results {
		if d.RejectCode != "infeasible" {
			t.Fatalf("count 65536: decision %+v", d)
		}
	}
	// What the storm allocates is what its decisions hold — specs, reasons,
	// wire results, the encode buffer as it grows: about ten bytes per byte
	// of the 9.6 MB response, where each replica used to cost 416 bytes per
	// requested vCPU.
	t.Logf("count 65536: %v, %d KB allocated for a %d KB response", took, alloc>>10, rec.Body.Len()>>10)
	if alloc > 16*uint64(rec.Body.Len()) {
		t.Errorf("count 65536: %d KB allocated for a %d KB response", alloc>>10, rec.Body.Len()>>10)
	}
}
