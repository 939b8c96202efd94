package main

import (
	"encoding/json"
	"net/http"
	"os"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans are recorded
// from this package only — around the op, inside the wrapped HTTP handler,
// and around each probe that replays the op's inputs straight into the next
// layer down on a twin fixture — so the product carries no instrumentation.
type span struct {
	Name    string `json:"name"`
	Parent  int    `json:"parent"` // index of the span that caused this one, -1 for a root
	Op      int    `json:"op"`     // ops share one id across their spans
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// sample is one span's duration per unit of work, tagged with its block so
// it can be calibrated once the block's closing reference run is in.
type sample struct {
	block int
	ns    int64
	units float64
}

// tracer keeps spans and per-layer samples in memory until the run ends.
type tracer struct {
	t0     time.Time
	spans  []span
	series map[string][]sample
	counts map[string]float64 // counters read from the product's public reports
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), series: make(map[string][]sample), counts: make(map[string]float64)}
}

func (t *tracer) span(name string, parent, op int, start time.Time, d time.Duration) int {
	s := start.Sub(t.t0).Nanoseconds()
	t.spans = append(t.spans, span{Name: name, Parent: parent, Op: op, StartNs: s, EndNs: s + d.Nanoseconds()})
	return len(t.spans) - 1
}

// sample records a span and files its duration under the layer series name.
func (t *tracer) sample(name string, parent, op, block int, start time.Time, d time.Duration, units float64) int {
	t.series[name] = append(t.series[name], sample{block: block, ns: d.Nanoseconds(), units: units})
	return t.span(name, parent, op, start, d)
}

// count sets a counter; add accumulates one; note files a duration that was
// reported by the product rather than measured around a call.
func (t *tracer) count(name string, v float64) { t.counts[name] = v }
func (t *tracer) add(name string, v float64)   { t.counts[name] += v }
func (t *tracer) note(name string, block int, d time.Duration) {
	t.series[name] = append(t.series[name], sample{block: block, ns: d.Nanoseconds(), units: 1})
}

// probe times fn as a child of the op in flight; fn replays the op's inputs
// into one layer and returns how many units of work that was.
func (h *harness) probe(name string, fn func() int) {
	start := time.Now()
	units := fn()
	h.tr.sample(name, h.opSpan, len(h.ph.opNs)-1, h.ph.cur, start, time.Since(start), float64(max(units, 1)))
}

// calibrated returns every sample of a series as calibrated ns, in recording
// order: per unit of work, or for the whole call.
func (t *tracer) calibrated(ph *phase, name string, perUnit bool) []float64 {
	ss := t.series[name]
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = float64(s.ns) * ph.factor(s.block)
		if perUnit {
			out[i] /= s.units
		}
	}
	return out
}

// p50 is the median of a series (0 when the layer was never entered on this
// workload).
func (t *tracer) p50(ph *phase, name string, perUnit bool) float64 {
	return median(t.calibrated(ph, name, perUnit))
}

// selfP50 is the median of parent − child over samples paired in recording
// order — the parent layer's own time — per unit of the parent's work or
// per call. Series of different lengths are not one-to-one and read 0.
func (t *tracer) selfP50(ph *phase, parent, child string, perUnit bool) float64 {
	p, c := t.calibrated(ph, parent, false), t.calibrated(ph, child, false)
	if len(p) != len(c) {
		return 0
	}
	for i := range p {
		p[i] -= c[i]
		if perUnit {
			p[i] /= t.series[parent][i].units
		}
	}
	return median(p)
}

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// tap wraps the server's handler so the traced phase sees the handler's own
// span and the request and response sizes; it adds two clock reads to the
// op and nothing when h.tr is nil.
type tap struct {
	next http.Handler
	h    *harness
	name string

	reqBytes, respBytes, calls int64
}

type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return w.ResponseWriter.Write(p)
}

func (t *tap) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if t.h.tr == nil {
		t.next.ServeHTTP(w, r)
		return
	}
	cw := &countingWriter{ResponseWriter: w}
	start := time.Now()
	t.next.ServeHTTP(cw, r)
	d := time.Since(start)
	// The op span is appended after the handler returns; its index is known
	// in advance because ops never nest.
	t.h.tr.sample(t.name, len(t.h.tr.spans)+1, len(t.h.ph.opNs), t.h.ph.cur, start, d, 1)
	t.reqBytes += r.ContentLength
	t.respBytes += cw.n
	t.calls++
}

// report files the mean request and response size of the traced calls.
func (t *tap) report() {
	if tr := t.h.tr; tr != nil && t.calls > 0 {
		tr.count(t.name+".req_bytes", float64(t.reqBytes)/float64(t.calls))
		tr.count(t.name+".resp_bytes", float64(t.respBytes)/float64(t.calls))
	}
}
