package predictserver

import (
	"context"
	"net/http"
	"strings"
	"testing"

	"vmtherm/internal/fleet"
)

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

func TestNewLocalStackServesAllEndpointFamilies(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	fc := fleet.DefaultConfig()
	fc.Racks, fc.HostsPerRack, fc.Seed = 1, 4, 7
	fc.Admission = fleet.AdmissionPolicy{MaxQueueDepth: 64}
	ls, err := NewLocalStack(context.Background(), LocalStackConfig{Fleet: fc, TrainCases: 12, PrimeRounds: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ls.Close)

	snap := snapshotOf(ls.Fleet)
	if snap.Round < 2 {
		t.Fatalf("priming ran %d rounds, want ≥ 2", snap.Round)
	}
	if got := ls.Fleet.Config().Admission.MaxQueueDepth; got != 64 {
		t.Fatalf("admission policy not applied: queue depth %d", got)
	}
	if err := ls.RunRounds(1); err != nil {
		t.Fatal(err)
	}
	if snapshotOf(ls.Fleet).Round != snap.Round+1 {
		t.Fatal("RunRounds did not advance the control plane")
	}
	// The server must answer a stable prediction from the trained model.
	if _, err := ls.Model.PredictFeatures(make([]float64, 0)); err == nil {
		t.Fatal("zero-length feature vector unexpectedly accepted (model not real?)")
	}
}
