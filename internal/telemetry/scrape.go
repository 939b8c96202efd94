package telemetry

import (
	"cmp"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/url"
	"time"
)

// ScrapeSource ingests live telemetry from any Prometheus-exposition
// endpoint — a Kepler node exporter, a node_exporter with hwmon metrics, or
// vmtherm's own predictserver /metrics — turning each scrape into one round
// of Readings. Metric and label names are configurable so the same source
// adapts to different exporters; the defaults match vmtherm's /metrics
// export (which is what the round-trip tests scrape).
//
// The scrape clock is wall time relative to the source's construction: each
// Advance performs one HTTP GET and stamps the resulting readings at the
// scrape instant, so staleness semantics downstream work exactly as they do
// for simulated or replayed telemetry. A failed scrape is returned as an
// error and emits nothing — the control loop degrades the silent hosts to
// stale rather than aborting, which is the whole point of the staleness
// machinery.
type ScrapeSource struct {
	cfg   ScrapeConfig
	epoch time.Time
	nowS  float64
}

// ScrapeConfig parameterizes a scraper.
type ScrapeConfig struct {
	// URL is the exposition endpoint (e.g. "http://kepler:9102/metrics").
	URL string
	// TempMetric is the per-host temperature gauge (°C). Required; hosts
	// missing it emit no reading.
	TempMetric string
	// UtilMetric and MemMetric are optional per-host load gauges in [0, 1];
	// hosts missing them default to 0.
	UtilMetric, MemMetric string
	// HostLabel is the label naming the host on each sample.
	HostLabel string

	// client, clock and sleep are the HTTP client (default: 10 s
	// timeout), the time source (default time.Now) and the backoff sleep
	// (default time.Sleep); the tests set them.
	client *http.Client
	clock  func() time.Time
	sleep  func(time.Duration)
}

// A failed scrape attempt — but not an oversized body, refused again on
// every read — is retried up to maxRetries times within one Advance.
// Between attempts the source sleeps a capped exponential backoff with
// jitter, so a flapping exporter sees spaced re-attempts instead of a
// burst: the k-th retry sleeps min(backoffBase·2^k, backoffMax) ± 25%.
const (
	maxRetries  = 2
	backoffBase = 100 * time.Millisecond
	backoffMax  = 5 * time.Second
)

// DefaultScrapeConfig targets vmtherm's own /metrics exposition.
func DefaultScrapeConfig(rawURL string) ScrapeConfig {
	return ScrapeConfig{
		URL:        rawURL,
		TempMetric: "vmtherm_host_temp_celsius",
		UtilMetric: "vmtherm_host_util_ratio",
		MemMetric:  "vmtherm_host_mem_ratio",
		HostLabel:  "host",
	}
}

// NewScrapeSource builds a scraper. Zero-valued metric/label names take the
// vmtherm defaults, so only URL is mandatory.
func NewScrapeSource(cfg ScrapeConfig) (*ScrapeSource, error) {
	d := DefaultScrapeConfig(cfg.URL)
	cfg.TempMetric = cmp.Or(cfg.TempMetric, d.TempMetric)
	cfg.UtilMetric = cmp.Or(cfg.UtilMetric, d.UtilMetric)
	cfg.MemMetric = cmp.Or(cfg.MemMetric, d.MemMetric)
	cfg.HostLabel = cmp.Or(cfg.HostLabel, d.HostLabel)
	if cfg.client == nil {
		cfg.client = &http.Client{Timeout: 10 * time.Second}
	}
	if cfg.clock == nil {
		cfg.clock = time.Now
	}
	if cfg.sleep == nil {
		cfg.sleep = time.Sleep
	}
	u, err := url.Parse(cfg.URL)
	if err != nil {
		return nil, fmt.Errorf("telemetry: bad scrape url: %w", err)
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return nil, fmt.Errorf("telemetry: unsupported scrape scheme %q", u.Scheme)
	}
	return &ScrapeSource{cfg: cfg, epoch: cfg.clock()}, nil
}

// Name identifies the source kind.
func (s *ScrapeSource) Name() string { return "scrape" }

// NowS reports seconds since the scraper's epoch, as of the last Advance.
func (s *ScrapeSource) NowS() float64 { return s.nowS }

// backoffFor computes the k-th retry's sleep: capped exponential with
// ±25% jitter, so a fleet of scrapers re-attempting a shared exporter
// does not re-synchronize into bursts.
func backoffFor(k int) time.Duration {
	d := backoffBase << k
	if d <= 0 || d > backoffMax {
		d = backoffMax
	}
	jitter := 0.75 + 0.5*rand.Float64()
	return time.Duration(float64(d) * jitter)
}

// scrapeOnce performs one HTTP attempt and parses the exposition.
func (s *ScrapeSource) scrapeOnce() ([]MetricPoint, error) {
	resp, err := s.cfg.client.Get(s.cfg.URL)
	if err != nil {
		return nil, fmt.Errorf("telemetry: scrape %s: %w", s.cfg.URL, err)
	}
	defer CloseExposition(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("telemetry: scrape %s: %s", s.cfg.URL, resp.Status)
	}
	return ParseExposition(resp.Body)
}

// Advance performs one scrape — retrying transient failures with a capped,
// jittered exponential backoff — and emits a reading per host that exposes
// the temperature metric. The scraper follows wall time, so dtS is ignored
// (pacing belongs to the driver); the source clock still advances even when
// the scrape fails, so staleness keeps accruing for silent hosts. An
// Advance whose attempts all fail returns the last error.
func (s *ScrapeSource) Advance(_ float64, emit func(Reading) bool) error {
	now := s.cfg.clock()
	atS := now.Sub(s.epoch).Seconds()
	s.nowS = atS

	var points []MetricPoint
	var err error
	for attempt := 0; ; attempt++ {
		points, err = s.scrapeOnce()
		if err == nil {
			break
		}
		if attempt >= maxRetries || errors.Is(err, errExpositionTooLarge) {
			return err
		}
		s.cfg.sleep(backoffFor(attempt))
	}

	// Fold the three metric families into per-host readings. Map iteration
	// order does not matter: the consumer keys by host id.
	type hostState struct {
		reading Reading
		hasTemp bool
	}
	hosts := make(map[string]*hostState)
	state := func(id string) *hostState {
		st, ok := hosts[id]
		if !ok {
			st = &hostState{reading: Reading{HostID: id, AtS: atS}}
			hosts[id] = st
		}
		return st
	}
	for _, p := range points {
		id := p.Label(s.cfg.HostLabel)
		if id == "" {
			continue
		}
		switch p.Name {
		case s.cfg.TempMetric:
			st := state(id)
			st.reading.TempC = p.Value
			st.hasTemp = true
		case s.cfg.UtilMetric:
			state(id).reading.Util = Clamp01(p.Value)
		case s.cfg.MemMetric:
			state(id).reading.MemFrac = Clamp01(p.Value)
		}
	}
	for _, st := range hosts {
		if !st.hasTemp {
			continue // load without temperature cannot anchor a session
		}
		emit(st.reading)
	}
	return nil
}
