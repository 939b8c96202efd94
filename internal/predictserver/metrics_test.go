package predictserver

import (
	"fmt"
	"io"
	"maps"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"vmtherm/internal/fleet"
	"vmtherm/internal/substrate"
	"vmtherm/internal/telemetry"
)

// metricsMap fetches GET /metrics and indexes the parsed points by
// name{host} for assertion convenience.
func metricsMap(t *testing.T, base string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status = %d", resp.StatusCode)
	}
	points, err := telemetry.ParseExposition(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]float64, len(points))
	for _, p := range points {
		key := p.Name
		if host := p.Label("host"); host != "" {
			key += "{" + host + "}"
		}
		if kind := p.Label("kind"); kind != "" {
			key += "{" + kind + "}"
		}
		out[key] = p.Value
	}
	return out
}

// TestMetricsEndpoint: the exposition must track sessions and served items,
// and parse with the same parser the scraper uses.
func TestMetricsEndpoint(t *testing.T) {
	_, ts, rec := newTestServer(t)

	m := metricsMap(t, ts.URL)
	if v, ok := m["vmtherm_sessions"]; !ok || v != 0 {
		t.Fatalf("vmtherm_sessions = %v (present %v)", v, ok)
	}

	// One stable prediction + one session with an observation.
	resp := postJSON(t, ts.URL+"/v1/predict/stable", StableRequest{Features: rec.Features})
	resp.Body.Close()
	stable := 55.0
	resp = postJSON(t, ts.URL+"/v1/session", SessionRequest{Phi0: 20, StableTempC: &stable})
	sess := decode[SessionResponse](t, resp)
	resp = postJSON(t, ts.URL+"/v1/session/"+sess.ID+"/observe", ObserveRequest{T: 0, TempC: 25})
	resp.Body.Close()

	m = metricsMap(t, ts.URL)
	if m["vmtherm_sessions"] != 1 {
		t.Fatalf("vmtherm_sessions = %v, want 1", m["vmtherm_sessions"])
	}
	if m[`vmtherm_items_total{stable}`] != 1 {
		t.Fatalf("stable items = %v, want 1", m[`vmtherm_items_total{stable}`])
	}
	if m[`vmtherm_items_total{observe}`] != 1 {
		t.Fatalf("observe items = %v, want 1", m[`vmtherm_items_total{observe}`])
	}
	// No fleet attached: no ingest/host families.
	if _, ok := m["vmtherm_ingest_received_total"]; ok {
		t.Fatal("fleet-less server exported ingest counters")
	}
}

// TestMetricsScrapeRoundTrip is the satellite's end-to-end proof: fleet A
// (simulated) publishes its per-host view on /metrics; a ScrapeSource with
// default config feeds that exposition into fleet B (source-driven); B's
// snapshot must reproduce A's hosts, temperatures and utilizations —
// vmtherm scraping vmtherm.
func TestMetricsScrapeRoundTrip(t *testing.T) {
	m, _ := testModel(t)
	ctlA := hotFleet(t)
	srv, err := New(m, WithFleet(ctlA))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	src, err := telemetry.NewScrapeSource(telemetry.DefaultScrapeConfig(ts.URL + "/metrics"))
	if err != nil {
		t.Fatal(err)
	}
	cfgB := fleet.DefaultConfig()
	cfgB.ThresholdC = 70
	ctlB, err := fleet.NewWithSource(cfgB, src, fleet.SyntheticStablePredictor(75))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := ctlB.RunRound()
	if err != nil {
		t.Fatal(err)
	}
	if rep.SourceError != "" {
		t.Fatalf("scrape round errored: %s", rep.SourceError)
	}

	snapA, snapB := snapshotOf(ctlA), snapshotOf(ctlB)
	if len(snapB.Latest) != len(snapA.Latest) {
		t.Fatalf("scraped %d hosts, exporter has %d", len(snapB.Latest), len(snapA.Latest))
	}
	for id, ra := range snapA.Latest {
		rb, ok := snapB.Latest[id]
		if !ok {
			t.Fatalf("host %s lost in scrape", id)
		}
		if rb.TempC != ra.TempC || rb.Util != ra.Util || rb.MemFrac != ra.MemFrac {
			t.Fatalf("host %s: scraped %+v, exported %+v", id, rb, ra)
		}
	}
	if rep.SessionsLive != len(snapA.Latest) {
		t.Fatalf("scrape-driven round has %d live sessions, want %d", rep.SessionsLive, len(snapA.Latest))
	}
	// A's overloaded host runs flat out; B must see that utilization and,
	// with the same synthetic anchor physics, flag it hot too.
	hot := "r0-h0"
	if snapB.Latest[hot].Util < 0.9 {
		t.Fatalf("scraped util for %s = %v", hot, snapB.Latest[hot].Util)
	}
	var hotSet []fleet.Hotspot
	ctlB.ViewColumns(func(s *fleet.Snapshot) { hotSet = slices.Clone(s.HotSet()) })
	found := false
	for _, h := range hotSet {
		if h.HostID == hot {
			found = true
		}
	}
	if !found {
		t.Fatalf("scrape-driven controller did not flag %s (hotspots %+v)", hot, hotSet)
	}
}

// TestFleetIngestEndpoint: readings pushed over HTTP reach the pipeline and
// surface in the ingest metrics.
func TestFleetIngestEndpoint(t *testing.T) {
	m, _ := testModel(t)
	cfg := fleet.DefaultConfig()
	cfg.Racks, cfg.HostsPerRack = 1, 2
	ctl, err := fleet.New(cfg, fleet.SyntheticStablePredictor(75))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(m, WithFleet(ctl))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	resp := postJSON(t, ts.URL+"/v1/fleet/ingest", FleetIngestRequest{Readings: []FleetReading{
		{HostID: "r0-h0", AtS: 1, TempC: 44, Util: 0.5},
		{HostID: "r0-h1", AtS: 1, TempC: 41},
	}})
	out := decode[FleetIngestResponse](t, resp)
	if out.Accepted != 2 || out.Dropped != 0 {
		t.Fatalf("ingest response = %+v", out)
	}
	received, _, _ := ctl.IngestStats()
	if received != 2 {
		t.Fatalf("pipeline received = %d, want 2", received)
	}
	mm := metricsMap(t, ts.URL)
	if mm[`vmtherm_items_total{ingest}`] != 2 {
		t.Fatalf("ingest items metric = %v, want 2", mm[`vmtherm_items_total{ingest}`])
	}
	if mm["vmtherm_ingest_received_total"] != 2 {
		t.Fatalf("ingest received metric = %v, want 2", mm["vmtherm_ingest_received_total"])
	}

	// A hostless reading is rejected whole-batch with 422.
	resp = postJSON(t, ts.URL+"/v1/fleet/ingest", FleetIngestRequest{Readings: []FleetReading{{AtS: 1}}})
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("hostless reading status = %d", resp.StatusCode)
	}
}

// mapHostFamilies renders the per-host families from the snapshot's maps, as
// /metrics did before it read the columns: the Latest keys sorted, four
// lookups per host, the predicted family only where the map has the host.
func mapHostFamilies(snap *fleet.Snapshot) string {
	var sb strings.Builder
	hosts := slices.Sorted(maps.Keys(snap.Latest))
	sb.WriteString("# HELP vmtherm_host_temp_celsius Newest sensed CPU temperature per host.\n# TYPE vmtherm_host_temp_celsius gauge\n")
	for _, id := range hosts {
		writeSample(&sb, "vmtherm_host_temp_celsius", hostLabel(id), snap.Latest[id].TempC)
	}
	sb.WriteString("# HELP vmtherm_host_util_ratio Newest CPU utilization per host.\n# TYPE vmtherm_host_util_ratio gauge\n")
	for _, id := range hosts {
		writeSample(&sb, "vmtherm_host_util_ratio", hostLabel(id), snap.Latest[id].Util)
	}
	sb.WriteString("# HELP vmtherm_host_mem_ratio Newest memory activity per host.\n# TYPE vmtherm_host_mem_ratio gauge\n")
	for _, id := range hosts {
		writeSample(&sb, "vmtherm_host_mem_ratio", hostLabel(id), snap.Latest[id].MemFrac)
	}
	sb.WriteString("# HELP vmtherm_host_predicted_temp_celsius Predicted temperature gap seconds ahead (stale hosts omitted).\n# TYPE vmtherm_host_predicted_temp_celsius gauge\n")
	for _, id := range hosts {
		if v, ok := snap.Predicted[id]; ok {
			writeSample(&sb, "vmtherm_host_predicted_temp_celsius", hostLabel(id), v)
		}
	}
	return sb.String()
}

// TestMetricsHostFamiliesMatchMapRendering: the per-host families written
// from the snapshot's columns are byte for byte the map-based rendering, on
// a simulated fleet (ids r0-h10 before r0-h2, so id order is not table
// order) and on a trace-driven fleet, each with hosts gone stale.
func TestMetricsHostFamiliesMatchMapRendering(t *testing.T) {
	m, _ := testModel(t)
	sim := func(t *testing.T) *fleet.Controller {
		cfg := fleet.DefaultConfig()
		cfg.Racks, cfg.HostsPerRack = 2, 12
		cfg.Seed = 5
		ctl, err := fleet.New(cfg, fleet.SyntheticStablePredictor(75))
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 2; round++ {
			if _, err := ctl.RunRound(); err != nil {
				t.Fatal(err)
			}
		}
		// Two sensors drop out: their hosts go stale, not yet evicted.
		if err := ctl.WithSubstrate(func(sub *substrate.Fleet) error {
			for _, id := range []string{"r0-h3", "r1-h10"} {
				if err := sub.SetSensorFault(id, substrate.SensorFault{Mode: substrate.SensorDropped}); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return ctl
	}
	trace := func(t *testing.T) *fleet.Controller {
		var readings []telemetry.Reading
		for r := 0; r < 10; r++ {
			for i := 0; i < 12; i++ {
				if r >= 2 && (i == 3 || i == 7) {
					continue // goes dark after two rounds: stale, not yet evicted
				}
				readings = append(readings, telemetry.Reading{
					HostID: fmt.Sprintf("tr-h%d", i), AtS: 15 * float64(r),
					TempC: 40 + float64(i+r), Util: 0.1 + 0.07*float64(i), MemFrac: 0.3,
				})
			}
		}
		src, err := telemetry.NewTraceSource(readings, telemetry.TraceOptions{})
		if err != nil {
			t.Fatal(err)
		}
		ctl, err := fleet.NewWithSource(fleet.DefaultConfig(), src, fleet.SyntheticStablePredictor(75))
		if err != nil {
			t.Fatal(err)
		}
		return ctl
	}
	for _, tc := range []struct {
		name string
		make func(*testing.T) *fleet.Controller
	}{{"sim", sim}, {"trace", trace}} {
		t.Run(tc.name, func(t *testing.T) {
			ctl := tc.make(t)
			for round := 0; round < 10; round++ {
				if _, err := ctl.RunRound(); err != nil {
					t.Fatal(err)
				}
			}
			srv, err := New(m, WithFleet(ctl))
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(srv.Handler())
			t.Cleanup(ts.Close)
			resp, err := http.Get(ts.URL + "/metrics")
			if err != nil {
				t.Fatal(err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			_, got, ok := strings.Cut(string(body), "# HELP vmtherm_host_temp_celsius")
			if !ok {
				t.Fatal("/metrics has no per-host families")
			}
			got = "# HELP vmtherm_host_temp_celsius" + got
			var want string
			var stale int
			ctl.ViewSnapshot(func(s *fleet.Snapshot) {
				want, stale = mapHostFamilies(s), len(s.StaleHosts)
			})
			if stale == 0 {
				t.Fatal("no stale hosts: the predicted family's omissions go untested")
			}
			if got != want {
				t.Fatalf("per-host families differ from the map rendering:\n got:\n%s\nwant:\n%s", got, want)
			}
		})
	}
}

// TestBatchItemsCountSuccessesOnly: the batch session routes count an item
// only when it is answered without an error, as the single-item routes do.
func TestBatchItemsCountSuccessesOnly(t *testing.T) {
	_, ts, _ := newTestServer(t)
	unknown := []string{"no-such-1", "no-such-2"}
	resp := postJSON(t, ts.URL+"/v1/session/batch/observe", ObserveBatchRequest{Items: []ObserveBatchItem{
		{ID: unknown[0], T: 0, TempC: 25}, {ID: unknown[1], T: 0, TempC: 25},
	}})
	if out := decode[ObserveBatchResponse](t, resp); out.Results[0].Error == "" || out.Results[1].Error == "" {
		t.Fatalf("unknown sessions observed: %+v", out)
	}
	resp = postJSON(t, ts.URL+"/v1/session/batch/predict", PredictBatchRequest{Items: []PredictBatchItem{
		{ID: unknown[0], T: 0}, {ID: unknown[1], T: 0},
	}})
	if out := decode[PredictBatchResponse](t, resp); out.Results[0].Error == "" || out.Results[1].Error == "" {
		t.Fatalf("unknown sessions predicted: %+v", out)
	}
	m := metricsMap(t, ts.URL)
	if m[`vmtherm_items_total{observe}`] != 0 || m[`vmtherm_items_total{predict}`] != 0 {
		t.Fatalf("failed batch items counted: observe %v, predict %v", m[`vmtherm_items_total{observe}`], m[`vmtherm_items_total{predict}`])
	}

	// One live session among the unknown ones: only it counts.
	stable := 55.0
	sess := decode[SessionResponse](t, postJSON(t, ts.URL+"/v1/session", SessionRequest{Phi0: 20, StableTempC: &stable}))
	resp = postJSON(t, ts.URL+"/v1/session/batch/observe", ObserveBatchRequest{Items: []ObserveBatchItem{
		{ID: unknown[0], T: 0, TempC: 25}, {ID: sess.ID, T: 0, TempC: 25},
	}})
	resp.Body.Close()
	resp = postJSON(t, ts.URL+"/v1/session/batch/predict", PredictBatchRequest{Items: []PredictBatchItem{
		{ID: sess.ID, T: 0}, {ID: unknown[1], T: 0},
	}})
	resp.Body.Close()
	m = metricsMap(t, ts.URL)
	if m[`vmtherm_items_total{observe}`] != 1 || m[`vmtherm_items_total{predict}`] != 1 {
		t.Fatalf("items counted: observe %v, predict %v, want 1 each", m[`vmtherm_items_total{observe}`], m[`vmtherm_items_total{predict}`])
	}
}
