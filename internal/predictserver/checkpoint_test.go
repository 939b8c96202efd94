package predictserver

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"vmtherm/internal/checkpoint"
)

// TestReadyzDefaultsReady: without a readiness probe the server is always
// ready — library embedders and tests get 200 with zero wiring.
func TestReadyzDefaultsReady(t *testing.T) {
	_, ts, _ := newTestServer(t)
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /readyz without a probe: status %d, want 200", resp.StatusCode)
	}
}

// TestReadyzFollowsProbe: /readyz must track the attached probe — 503 while
// restoring or draining, 200 in between — while /healthz stays 200 the
// whole time (liveness is not readiness).
func TestReadyzFollowsProbe(t *testing.T) {
	m, _ := testModel(t)
	var ready atomic.Bool
	srv, err := New(m, WithReadiness(ready.Load))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	get := func(path string) int {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	if got := get("/readyz"); got != http.StatusServiceUnavailable {
		t.Fatalf("not-ready /readyz: status %d, want 503", got)
	}
	if got := get("/healthz"); got != http.StatusOK {
		t.Fatalf("/healthz while not ready: status %d, want 200", got)
	}
	ready.Store(true)
	if got := get("/readyz"); got != http.StatusOK {
		t.Fatalf("ready /readyz: status %d, want 200", got)
	}
	ready.Store(false) // draining
	if got := get("/readyz"); got != http.StatusServiceUnavailable {
		t.Fatalf("draining /readyz: status %d, want 503", got)
	}
	if got := get("/healthz"); got != http.StatusOK {
		t.Fatalf("/healthz while draining: status %d, want 200", got)
	}
}

// TestFleetCheckpointEndpoint: 503 without a checkpoint feed, the manager's
// status JSON with one.
func TestFleetCheckpointEndpoint(t *testing.T) {
	_, ts, _ := newTestServer(t)
	resp, err := http.Get(ts.URL + "/v1/fleet/checkpoint")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("GET /v1/fleet/checkpoint without a feed: status %d, want 503", resp.StatusCode)
	}

	m, _ := testModel(t)
	status := checkpoint.Status{Enabled: true, Path: "/tmp/ckpt", IntervalS: 30, Writes: 7, BytesWritten: 1234, Restores: 1}
	srv, err := New(m, WithCheckpoint(func() checkpoint.Status { return status }))
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(srv.Handler())
	t.Cleanup(ts2.Close)
	resp2, err := http.Get(ts2.URL + "/v1/fleet/checkpoint")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/fleet/checkpoint: status %d, want 200", resp2.StatusCode)
	}
	var got checkpoint.Status
	if err := json.NewDecoder(resp2.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got != status {
		t.Fatalf("checkpoint status round-trip: got %+v, want %+v", got, status)
	}
}

// TestMetricsExposeCheckpointCounters: the vmtherm_checkpoint_* families
// must be present on a fleet-attached server even with checkpointing
// disabled (flat zero), and must carry the feed's numbers when attached.
func TestMetricsExposeCheckpointCounters(t *testing.T) {
	m, _ := testModel(t)
	fc := hotFleet(t)
	srv, err := New(m, WithFleet(fc), WithCheckpoint(func() checkpoint.Status {
		return checkpoint.Status{Enabled: true, Writes: 3, BytesWritten: 512, Restores: 1, Failures: 2}
	}))
	if err != nil {
		t.Fatal(err)
	}

	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	rw := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rw, req)
	body := rw.Body.String()
	for _, want := range []string{
		"vmtherm_checkpoint_writes_total 3\n",
		"vmtherm_checkpoint_bytes_total 512\n",
		"vmtherm_checkpoint_restores_total 1\n",
		"vmtherm_checkpoint_failures_total 2\n",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", strings.TrimSpace(want))
		}
	}
}
