package fleet_test

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"vmtherm/internal/core"
	"vmtherm/internal/dataset"
	"vmtherm/internal/fleet"
	"vmtherm/internal/predictserver"
	"vmtherm/internal/scenario"
	"vmtherm/internal/workload"
)

// TestColumnReadersLeaveMapsUnfilled: a /metrics scrape, a hotspots GET and
// a scenario round's grading read the published generation without filling
// its legacy maps, and the scrape's bytes are the ones a filled generation
// serves (all but the wall-clock staleness gauge).
func TestColumnReadersLeaveMapsUnfilled(t *testing.T) {
	cases, err := workload.GenerateCases(workload.DefaultGenOptions(), 17, "cols", 8)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := dataset.Build(context.Background(), cases, dataset.DefaultBuildOptions(17))
	if err != nil {
		t.Fatal(err)
	}
	model, err := core.TrainStable(context.Background(), recs, core.FastStableConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := fleet.DefaultConfig()
	cfg.Racks, cfg.HostsPerRack = 2, 12
	cfg.ThresholdC = 30
	cfg.Seed = 5
	ctl, err := fleet.New(cfg, fleet.SyntheticStablePredictor(75))
	if err != nil {
		t.Fatal(err)
	}
	runner, err := scenario.New(scenario.Spec{Name: "columns", Rounds: 4, Baseline: scenario.Baseline{VMsPerHost: 2}}, ctl)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		if _, err := runner.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if ctl.MapsFilled() {
		t.Fatal("the scenario grader filled the generation's maps")
	}
	srv, err := predictserver.New(model, predictserver.WithFleet(ctl))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	get := func(path string) string {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d %v", path, resp.StatusCode, err)
		}
		return string(body)
	}
	unfilled := get("/metrics")
	hot := get("/v1/fleet/hotspots")
	if ctl.MapsFilled() {
		t.Fatal("a scrape or a hotspots GET filled the generation's maps")
	}
	if !strings.Contains(hot, `"host_id"`) || !strings.Contains(unfilled, "vmtherm_host_predicted_temp_celsius{") {
		t.Fatalf("no hotspot or no per-host family served:\n%s", hot)
	}
	var hosts int
	ctl.ViewSnapshot(func(s *fleet.Snapshot) { hosts = len(s.Predicted) })
	if !ctl.MapsFilled() || hosts == 0 {
		t.Fatalf("ViewSnapshot left the maps unfilled (%d predicted)", hosts)
	}
	if got, want := dropStaleness(get("/metrics")), dropStaleness(unfilled); got != want {
		t.Fatalf("/metrics differs once the maps are filled:\n got:\n%s\nwant:\n%s", got, want)
	}
	if got := get("/v1/fleet/hotspots"); got != hot {
		t.Fatalf("hotspots differ once the maps are filled:\n got %s\nwant %s", got, hot)
	}
}

// dropStaleness removes the one sample that moves with the wall clock.
func dropStaleness(exposition string) string {
	var keep []string
	for _, line := range strings.Split(exposition, "\n") {
		if !strings.HasPrefix(line, "vmtherm_hotspot_staleness_seconds ") {
			keep = append(keep, line)
		}
	}
	return strings.Join(keep, "\n")
}
