package telemetry

import (
	"fmt"
	"math/rand"
	"net/http"
	"net/url"
	"sync/atomic"
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
	stats scrapeCounters
}

// ScrapeStats is one endpoint's cumulative scrape accounting: how often it
// was reached, how often attempts failed, how many re-attempts (and
// backoff sleeps) the retry policy spent, and how many Advances in a row
// have ended in failure — the per-endpoint health signal a federated
// scraper will shed load on.
type ScrapeStats struct {
	// Scrapes counts successful scrapes (Advances that emitted readings).
	Scrapes int64
	// Errors counts failed attempts, including retried ones.
	Errors int64
	// Retries counts re-attempts after a failed attempt.
	Retries int64
	// Backoffs counts the backoff sleeps taken between attempts.
	Backoffs int64
	// ConsecutiveErrors counts Advances that have failed in a row (every
	// attempt exhausted); reset to zero by the next successful scrape.
	ConsecutiveErrors int64
}

// scrapeCounters is the atomic backing store for ScrapeStats, readable
// concurrently with an in-flight Advance (stats lines, /metrics).
type scrapeCounters struct {
	scrapes, errors, retries, backoffs, consecutive atomic.Int64
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
	// Client is the HTTP client (default: 10 s timeout).
	Client *http.Client
	// Clock injects a time source for tests (default time.Now).
	Clock func() time.Time
	// MaxRetries is how many times a failed scrape attempt is retried
	// within one Advance (default 2; negative disables retries). Between
	// attempts the source sleeps a capped exponential backoff with jitter,
	// so a flapping exporter sees spaced re-attempts instead of a burst.
	MaxRetries int
	// BackoffBase and BackoffMax bound the retry backoff: the k-th retry
	// sleeps min(BackoffBase·2^k, BackoffMax) ± 25% jitter (defaults
	// 100 ms and 5 s).
	BackoffBase, BackoffMax time.Duration
	// Sleep injects the backoff sleep for tests (default time.Sleep).
	Sleep func(time.Duration)
}

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
	if cfg.TempMetric == "" {
		cfg.TempMetric = d.TempMetric
	}
	if cfg.UtilMetric == "" {
		cfg.UtilMetric = d.UtilMetric
	}
	if cfg.MemMetric == "" {
		cfg.MemMetric = d.MemMetric
	}
	if cfg.HostLabel == "" {
		cfg.HostLabel = d.HostLabel
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{Timeout: 10 * time.Second}
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	if cfg.MaxRetries == 0 {
		cfg.MaxRetries = 2
	} else if cfg.MaxRetries < 0 {
		cfg.MaxRetries = 0
	}
	if cfg.BackoffBase == 0 {
		cfg.BackoffBase = 100 * time.Millisecond
	}
	if cfg.BackoffMax == 0 {
		cfg.BackoffMax = 5 * time.Second
	}
	if cfg.Sleep == nil {
		cfg.Sleep = time.Sleep
	}
	u, err := url.Parse(cfg.URL)
	if err != nil {
		return nil, fmt.Errorf("telemetry: bad scrape url: %w", err)
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return nil, fmt.Errorf("telemetry: unsupported scrape scheme %q", u.Scheme)
	}
	return &ScrapeSource{cfg: cfg, epoch: cfg.Clock()}, nil
}

// Name identifies the source kind.
func (s *ScrapeSource) Name() string { return "scrape" }

// NowS reports seconds since the scraper's epoch, as of the last Advance.
func (s *ScrapeSource) NowS() float64 { return s.nowS }

// Stats returns the endpoint's cumulative scrape accounting. Safe to call
// concurrently with an in-flight Advance.
func (s *ScrapeSource) Stats() ScrapeStats {
	return ScrapeStats{
		Scrapes:           s.stats.scrapes.Load(),
		Errors:            s.stats.errors.Load(),
		Retries:           s.stats.retries.Load(),
		Backoffs:          s.stats.backoffs.Load(),
		ConsecutiveErrors: s.stats.consecutive.Load(),
	}
}

// backoffFor computes the k-th retry's sleep: capped exponential with
// ±25% jitter, so a fleet of scrapers re-attempting a shared exporter
// does not re-synchronize into bursts.
func (s *ScrapeSource) backoffFor(k int) time.Duration {
	d := s.cfg.BackoffBase << k
	if d <= 0 || d > s.cfg.BackoffMax {
		d = s.cfg.BackoffMax
	}
	jitter := 0.75 + 0.5*rand.Float64()
	return time.Duration(float64(d) * jitter)
}

// scrapeOnce performs one HTTP attempt and parses the exposition.
func (s *ScrapeSource) scrapeOnce() ([]MetricPoint, error) {
	resp, err := s.cfg.Client.Get(s.cfg.URL)
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
// the scrape fails, so staleness keeps accruing for silent hosts. Every
// attempt and backoff lands in Stats; an Advance whose attempts all fail
// bumps ConsecutiveErrors and returns the last error.
func (s *ScrapeSource) Advance(_ float64, emit func(Reading) bool) error {
	now := s.cfg.Clock()
	atS := now.Sub(s.epoch).Seconds()
	s.nowS = atS

	var points []MetricPoint
	var err error
	for attempt := 0; ; attempt++ {
		points, err = s.scrapeOnce()
		if err == nil {
			break
		}
		s.stats.errors.Add(1)
		if attempt >= s.cfg.MaxRetries {
			s.stats.consecutive.Add(1)
			return err
		}
		s.stats.retries.Add(1)
		s.stats.backoffs.Add(1)
		s.cfg.Sleep(s.backoffFor(attempt))
	}
	s.stats.scrapes.Add(1)
	s.stats.consecutive.Store(0)

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
