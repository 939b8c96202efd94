package predictserver

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"vmtherm/internal/fleet"
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
	found := false
	for _, h := range snapB.Hotspots {
		if h.HostID == hot {
			found = true
		}
	}
	if !found {
		t.Fatalf("scrape-driven controller did not flag %s (hotspots %+v)", hot, snapB.Hotspots)
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
