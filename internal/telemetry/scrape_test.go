package telemetry

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestParseExposition(t *testing.T) {
	const text = `# HELP vmtherm_host_temp_celsius Newest sensed CPU temperature per host.
# TYPE vmtherm_host_temp_celsius gauge
vmtherm_host_temp_celsius{host="r0-h0"} 55.25
vmtherm_host_temp_celsius{host="r0-h1"} 48 1712000000000

vmtherm_sessions 42
weird_metric{a="x,y",b="q\"uote\\n"} 1e3
`
	points, err := ParseExposition(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 4 {
		t.Fatalf("parsed %d points, want 4", len(points))
	}
	if points[0].Name != "vmtherm_host_temp_celsius" || points[0].Label("host") != "r0-h0" || points[0].Value != 55.25 {
		t.Fatalf("point 0 = %+v", points[0])
	}
	if points[1].TimestampMS != 1712000000000 {
		t.Fatalf("point 1 timestamp = %d", points[1].TimestampMS)
	}
	if points[2].Name != "vmtherm_sessions" || points[2].Value != 42 || len(points[2].Labels) != 0 {
		t.Fatalf("bare point = %+v", points[2])
	}
	if got := points[3].Label("a"); got != "x,y" {
		t.Fatalf("comma-in-value label = %q", got)
	}
	if got := points[3].Label("b"); got != "q\"uote\\n" {
		t.Fatalf("escaped label = %q", got)
	}
	if points[3].Value != 1000 {
		t.Fatalf("scientific value = %v", points[3].Value)
	}
}

func TestParseExpositionRejectsMalformed(t *testing.T) {
	for _, bad := range []string{
		"metric_without_value",
		`m{unterminated="v" 1`,
		`m{k=unquoted} 1`,
		"m not_a_number",
		"m 1 2 3",
	} {
		if _, err := ParseExposition(strings.NewReader(bad)); err == nil {
			t.Errorf("malformed line %q accepted", bad)
		}
	}
}

// TestScrapeSourceEndToEnd scrapes a fake exporter and checks the folded
// per-host readings, including Kepler-style custom metric names.
func TestScrapeSourceEndToEnd(t *testing.T) {
	const exposition = `# TYPE kepler_node_cpu_temp_celsius gauge
kepler_node_cpu_temp_celsius{node="n0"} 61.5
kepler_node_cpu_temp_celsius{node="n1"} 44
kepler_node_cpu_usage_ratio{node="n0"} 0.9
kepler_node_cpu_usage_ratio{node="n1"} 1.7
kepler_node_mem_usage_ratio{node="n0"} 0.25
kepler_node_cpu_usage_ratio{node="orphan-no-temp"} 0.5
unrelated_metric 7
`
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		_, _ = w.Write([]byte(exposition))
	}))
	defer ts.Close()

	now := time.Unix(1000, 0)
	src, err := NewScrapeSource(ScrapeConfig{
		URL:        ts.URL,
		TempMetric: "kepler_node_cpu_temp_celsius",
		UtilMetric: "kepler_node_cpu_usage_ratio",
		MemMetric:  "kepler_node_mem_usage_ratio",
		HostLabel:  "node",
		clock:      func() time.Time { return now },
	})
	if err != nil {
		t.Fatal(err)
	}
	if src.Name() != "scrape" {
		t.Fatalf("name = %q", src.Name())
	}

	now = now.Add(30 * time.Second)
	var got []Reading
	if err := src.Advance(15, func(r Reading) bool { got = append(got, r); return true }); err != nil {
		t.Fatal(err)
	}
	if src.NowS() != 30 {
		t.Fatalf("scrape clock = %v, want 30", src.NowS())
	}
	sort.Slice(got, func(i, j int) bool { return got[i].HostID < got[j].HostID })
	if len(got) != 2 {
		t.Fatalf("scraped %d readings, want 2 (orphan without temp excluded): %+v", len(got), got)
	}
	n0, n1 := got[0], got[1]
	if n0.HostID != "n0" || n0.TempC != 61.5 || n0.Util != 0.9 || n0.MemFrac != 0.25 || n0.AtS != 30 {
		t.Fatalf("n0 = %+v", n0)
	}
	if n1.HostID != "n1" || n1.TempC != 44 || n1.Util != 1 { // 1.7 clamped
		t.Fatalf("n1 = %+v", n1)
	}
}

// TestScrapeSourceFailureAdvancesClock: a dead exporter is an error, emits
// nothing, and still moves the clock so staleness accrues downstream.
func TestScrapeSourceFailureAdvancesClock(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer ts.Close()

	now := time.Unix(0, 0)
	src, err := NewScrapeSource(ScrapeConfig{URL: ts.URL, clock: func() time.Time { return now }, sleep: func(time.Duration) {}})
	if err != nil {
		t.Fatal(err)
	}
	now = now.Add(45 * time.Second)
	emitted := 0
	if err := src.Advance(15, func(Reading) bool { emitted++; return true }); err == nil {
		t.Fatal("500 scrape did not error")
	}
	if emitted != 0 {
		t.Fatalf("failed scrape emitted %d readings", emitted)
	}
	if src.NowS() != 45 {
		t.Fatalf("clock after failed scrape = %v, want 45", src.NowS())
	}
}

// TestScrapeSourceRetriesFlakyExporter: an exporter that fails twice then
// recovers is absorbed by the retry policy — one Advance, readings
// delivered, three requests and two backoff sleeps, the most it allows.
func TestScrapeSourceRetriesFlakyExporter(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		if calls.Add(1) <= 2 {
			http.Error(w, "flap", http.StatusServiceUnavailable)
			return
		}
		_, _ = w.Write([]byte("vmtherm_host_temp_celsius{host=\"h0\"} 50\n"))
	}))
	defer ts.Close()

	var slept []time.Duration
	src, err := NewScrapeSource(ScrapeConfig{
		URL:   ts.URL,
		sleep: func(d time.Duration) { slept = append(slept, d) },
	})
	if err != nil {
		t.Fatal(err)
	}
	emitted := 0
	if err := src.Advance(15, func(Reading) bool { emitted++; return true }); err != nil {
		t.Fatalf("flaky exporter not absorbed: %v", err)
	}
	if emitted != 1 {
		t.Fatalf("emitted %d readings, want 1", emitted)
	}
	if n := calls.Load(); n != 3 {
		t.Fatalf("exporter saw %d requests, want 3 (2 flaps + 1 success)", n)
	}
	if len(slept) != 2 {
		t.Fatalf("slept %d times, want 2", len(slept))
	}
	// Backoff must grow exponentially from the base and stay within the
	// jitter envelope ([0.75, 1.25]× the nominal) and under the cap.
	for i, d := range slept {
		nominal := backoffBase << i
		if d < time.Duration(0.75*float64(nominal)) || d > time.Duration(1.25*float64(nominal)) {
			t.Fatalf("backoff %d = %v, outside jitter envelope of %v", i, d, nominal)
		}
	}

	// Kill the exporter: every attempt fails, the error surfaces, and each
	// Advance spends its two retries.
	ts.Close()
	for i := 0; i < 2; i++ {
		if err := src.Advance(15, func(Reading) bool { return true }); err == nil {
			t.Fatal("dead exporter did not error")
		}
	}
	if len(slept) != 2+2*maxRetries {
		t.Fatalf("slept %d times, want %d (2 flaps + 2 dead Advances × %d retries)", len(slept), 2+2*maxRetries, maxRetries)
	}
}

func TestScrapeSourceValidation(t *testing.T) {
	if _, err := NewScrapeSource(ScrapeConfig{URL: "ftp://nope"}); err == nil {
		t.Error("ftp scheme accepted")
	}
	if _, err := NewScrapeSource(ScrapeConfig{URL: "://bad"}); err == nil {
		t.Error("unparsable url accepted")
	}
}

// endlessExporter answers every scrape with status and then comment lines —
// valid exposition that parses to nothing — until the scraper hangs up, and
// counts the requests and the bytes it managed to send.
func endlessExporter(t *testing.T, status int) (*httptest.Server, *atomic.Int64, *atomic.Int64) {
	t.Helper()
	pad := bytes.Repeat([]byte("# "+strings.Repeat("x", 61)+"\n"), 1024) // 64 KiB
	var calls, sent atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(status)
		for r.Context().Err() == nil {
			n, err := w.Write(pad)
			sent.Add(int64(n))
			if err != nil {
				return
			}
		}
	}))
	t.Cleanup(ts.Close)
	return ts, &calls, &sent
}

// TestScrapeBodyIsBounded: the exporter is another machine. A body past
// maxExpositionBytes is an error naming the limit — never the points that
// fit — fetched once, not retried; and neither the parse nor the drain that
// follows it (on a non-200 too, which is retried) reads on until the
// exporter stops or the client times out.
func TestScrapeBodyIsBounded(t *testing.T) {
	for _, tc := range []struct {
		status   int
		want     string
		requests int64
	}{
		// An oversized body is refused again on every read: no retry.
		{http.StatusOK, "exceeds the 67108864-byte limit", 1},
		{http.StatusInternalServerError, "500 Internal Server Error", 1 + maxRetries},
	} {
		ts, calls, sent := endlessExporter(t, tc.status)
		src, err := NewScrapeSource(ScrapeConfig{URL: ts.URL, sleep: func(time.Duration) {}})
		if err != nil {
			t.Fatal(err)
		}
		err = src.Advance(15, func(Reading) bool {
			t.Errorf("status %d: a reading was emitted from an oversized body", tc.status)
			return true
		})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("status %d: Advance = %v, want an error containing %q", tc.status, err, tc.want)
		}
		// Parse and drain each stop at the cap, on every attempt; the rest
		// is socket buffering.
		if n, got := calls.Load(), sent.Load(); n != tc.requests || got > n*(2*maxExpositionBytes+(8<<20)) {
			t.Fatalf("status %d: read on for %d bytes of an endless body over %d requests, want %d", tc.status, got, n, tc.requests)
		}
	}
}

// FuzzParseExposition: scraped text is the one input that arrives from other
// machines. Whatever the bytes, the parser returns an error or points —
// never both, never a panic — every point is named, and there is at most one
// per line.
func FuzzParseExposition(f *testing.F) {
	f.Add([]byte("# TYPE t gauge\nt{host=\"r0-h0\"} 55.25\nt{host=\"r0-h1\"} 48 1712000000000\n\nbare 42\n"))
	f.Add([]byte(`weird{a="x,y",b="q\"uote\\n"} 1e3`))
	f.Add([]byte("m{k=\"" + strings.Repeat("v", 1<<20+1) + "\"} 1\n")) // a line past the scanner's 1 MiB token
	f.Add([]byte(`m{k="dangling\`))                                    // dangling escape
	f.Add([]byte(`m{unterminated="v" 1`))                              // unterminated label set
	f.Add([]byte("m{k=\"v\",} NaN -1\n{} 1\nm 0x1p-2\n"))
	f.Fuzz(func(t *testing.T, text []byte) {
		points, err := ParseExposition(bytes.NewReader(text))
		if err != nil {
			if points != nil {
				t.Fatalf("error %v alongside %d points", err, len(points))
			}
			return
		}
		if lines := bytes.Count(text, []byte("\n")) + 1; len(points) > lines {
			t.Fatalf("%d points from %d lines", len(points), lines)
		}
		for _, p := range points {
			if p.Name == "" {
				t.Fatalf("unnamed point %+v", p)
			}
		}
	})
}
