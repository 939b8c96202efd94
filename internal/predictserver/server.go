// Package predictserver implements the HTTP prediction service behind
// cmd/vmtherm-fleetd: stable-temperature prediction from Eq. (2) feature
// vectors, and per-server dynamic prediction sessions that receive online
// measurements and answer Δ_gap-ahead queries — the deployment loop the
// paper describes ("the model received data collected online and output
// prediction values").
//
// The service is built for fleet-scale batch traffic: thermal-aware
// schedulers consume predictions for hundreds of hosts per round, so
// alongside the single-item endpoints it serves batch variants, fanned
// across cores in contiguous chunks by internal/shard, with the stable path
// funnelled through the SVM batch kernel. The sessions are the service's
// own (sessions.go), each a core.DynamicPredictor on the shape its create
// asked for; a fleet attached with WithFleet runs its hosts' sessions in
// internal/engine.
package predictserver

import (
	"bytes"
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"vmtherm/internal/checkpoint"
	"vmtherm/internal/core"
	"vmtherm/internal/fleet"
	"vmtherm/internal/scenario"
	"vmtherm/internal/shard"
)

// MaxBatchItems caps the item count of one batch request. A datacenter
// round larger than this should be split into several requests.
const MaxBatchItems = 65536

// MaxHostIDBytes caps the host_id of a pushed reading at the longest DNS
// name. The ingest pipeline bounds how many readings it holds, and the host
// table how many hosts; this bounds what each of them can cost. A
// placement's VM id, replica suffix included, has the same cap: every
// replica and every default task copies it.
const MaxHostIDBytes = 253

// maxBatchBodyBytes caps a batch request body before JSON decoding starts,
// so the memory bound holds even against bodies that would decode into far
// more than MaxBatchItems rows. 64 MiB comfortably fits MaxBatchItems
// 16-feature rows in JSON. maxItemBodyBytes is the same cap for the
// single-item routes, whose largest legitimate body is a few hundred bytes.
const (
	maxBatchBodyBytes = 64 << 20
	maxItemBodyBytes  = 1 << 20
)

// decodeBody decodes a request body of at most limit bytes into v, writing
// the appropriate error response (413 for an oversized body, 400 otherwise)
// and reporting false on failure.
func decodeBody(w http.ResponseWriter, r *http.Request, v any, limit int64) bool {
	r.Body = http.MaxBytesReader(w, r.Body, limit)
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		writeBodyError(w, err)
		return false
	}
	return true
}

// writeBodyError answers a request whose body could not be read or decoded.
func writeBodyError(w http.ResponseWriter, err error) {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		writeError(w, http.StatusRequestEntityTooLarge, err)
	} else {
		writeError(w, http.StatusBadRequest, err)
	}
}

// Server routes prediction requests to a trained model and manages dynamic
// sessions. Create with New; it is safe for concurrent use.
type Server struct {
	model *core.StablePredictor
	// sessions holds the dynamic prediction sessions clients drive by id.
	sessions *sessionStore
	// now is the server clock the sessions' idle time is read on.
	now func() time.Time
	// workers bounds the goroutines one batch request fans out to.
	workers int
	// fleet, when attached via WithFleet, serves the /v1/fleet endpoints:
	// the Δ_gap-ahead hotspot map, thermal-aware placement, and telemetry
	// ingest.
	fleet *fleet.Controller
	// scenario, when attached via WithScenario, feeds GET
	// /v1/fleet/scenario and the vmtherm_scenario_* gauges.
	scenario func() scenario.Status
	// ready, when attached via WithReadiness, gates GET /readyz (nil: always
	// ready); ckptStatus, when attached via WithCheckpoint, feeds GET
	// /v1/fleet/checkpoint and the vmtherm_checkpoint_* counters.
	ready      func() bool
	ckptStatus func() checkpoint.Status
	// metrics are the /metrics exposition counters.
	metrics serverMetrics
	// scratch keeps PredictScratch instances across batch requests, and
	// across collections, so the stable-batch hot path reuses scaled-feature
	// and kernel buffers instead of allocating them per chunk.
	scratch shard.FreeList[core.PredictScratch]
}

// serverMetrics counts served work for the /metrics exposition.
type serverMetrics struct {
	stableItems  atomic.Int64 // ψ_stable predictions served (single + batch)
	observeItems atomic.Int64 // session observations served (single + batch; successes only)
	predictItems atomic.Int64 // session predictions served (single + batch; successes only)
	ingestItems  atomic.Int64 // readings accepted via POST /v1/fleet/ingest
	// sessionsRefused counts creates answered 429 at the session cap, and
	// sessionsEvicted the sessions the idle sweep removed.
	sessionsRefused atomic.Int64
	sessionsEvicted atomic.Int64
	// Placement decisions served (single + batch endpoints), by status, and
	// the size of the last batch served (gauge).
	placePlaced    atomic.Int64
	placeQueued    atomic.Int64
	placeRejected  atomic.Int64
	placeBatchSize atomic.Int64
}

// Option customizes a Server.
type Option func(*Server)

// WithWorkers bounds the goroutines one batch request is split across
// (≤ 0, the default: GOMAXPROCS; 1: every batch runs on its request's own
// goroutine). Answers are the same bytes whatever it is set to.
func WithWorkers(n int) Option {
	return func(s *Server) { s.workers = n }
}

// WithClock sets the clock a session's idle time is read on (default
// time.Now; see EvictIdleSessions).
func WithClock(now func() time.Time) Option {
	return func(s *Server) { s.now = now }
}

// minBatchChunk is the batch size one goroutine is worth: a batch of n items
// splits into at most ⌈n/minBatchChunk⌉ chunks, so one of 64 items or fewer
// runs on its request's own goroutine, where a split would cost more than it
// saves.
const minBatchChunk = 64

// New creates a server around a trained stable model.
func New(model *core.StablePredictor, opts ...Option) (*Server, error) {
	if model == nil {
		return nil, errors.New("predictserver: nil model")
	}
	s := &Server{model: model, now: time.Now}
	for _, o := range opts {
		o(s)
	}
	start := s.now()
	s.sessions = newSessionStore(func() float64 { return s.now().Sub(start).Seconds() })
	if s.workers <= 0 {
		s.workers = runtime.GOMAXPROCS(0)
	}
	return s, nil
}

// Close does nothing: a Server holds no goroutine or handle between
// requests. It stays because bench/e2e calls it.
func (s *Server) Close() {}

// route is one registered endpoint: the exact mux pattern plus its handler.
type route struct {
	pattern string
	handler http.HandlerFunc
}

// routes is the single authoritative endpoint table: Handler registers
// from it and RoutePatterns exposes it, so the served surface and the
// documented one (docs/API.md, checked by test) cannot drift apart.
func (s *Server) routes() []route {
	return []route{
		{"GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
			writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
		}},
		{"GET /readyz", s.handleReadyz},
		{"POST /v1/predict/stable", s.handleStable},
		{"POST /v1/stable/batch", pooled(s.serveStableBatch)},
		{"POST /v1/session", s.handleCreateSession},
		{"POST /v1/session/{id}/observe", s.handleObserve},
		{"GET /v1/session/{id}/predict", s.handlePredict},
		{"POST /v1/session/batch/observe", s.handleObserveBatch},
		{"POST /v1/session/batch/predict", s.handlePredictBatch},
		{"DELETE /v1/session/{id}", s.handleDeleteSession},
		{"GET /v1/fleet/hotspots", s.fleetRoute(s.handleFleetHotspots)},
		{"GET /v1/fleet/scenario", s.handleFleetScenario},
		{"GET /v1/fleet/checkpoint", s.handleFleetCheckpoint},
		{"POST /v1/fleet/place", s.fleetRoute(s.handleFleetPlace)},
		{"POST /v1/fleet/place/batch", s.fleetRoute(pooled(s.serveFleetPlaceBatch))},
		{"POST /v1/fleet/ingest", s.fleetRoute(pooled(s.serveFleetIngest))},
		{"GET /metrics", s.handleMetrics},
	}
}

// fleetRoute serves h, or answers 503 on a server with no fleet control
// plane attached.
func (s *Server) fleetRoute(h http.HandlerFunc) http.HandlerFunc {
	if s.fleet != nil {
		return h
	}
	return func(w http.ResponseWriter, _ *http.Request) {
		writeError(w, http.StatusServiceUnavailable, errors.New("no fleet control plane attached"))
	}
}

// pooled serves h out of a wireScratch from the pool.
func pooled(h func(http.ResponseWriter, *http.Request, *wireScratch)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		sc := wirePool.Get().(*wireScratch)
		h(w, r, sc)
		sc.release()
	}
}

// Handler returns the HTTP routes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	for _, r := range s.routes() {
		mux.HandleFunc(r.pattern, r.handler)
	}
	return mux
}

// RoutePatterns lists every registered "METHOD /path" pattern in
// registration order — the contract docs/API.md is tested against and the
// docs-check CI step greps.
func (s *Server) RoutePatterns() []string {
	rs := s.routes()
	out := make([]string, len(rs))
	for i, r := range rs {
		out[i] = r.pattern
	}
	return out
}

// StableRequest asks for a ψ_stable prediction.
type StableRequest struct {
	Features []float64 `json:"features"`
}

// StableResponse carries the prediction.
type StableResponse struct {
	StableTempC float64 `json:"stable_temp_c"`
}

func (s *Server) handleStable(w http.ResponseWriter, r *http.Request) {
	var req StableRequest
	if !decodeBody(w, r, &req, maxItemBodyBytes) {
		return
	}
	v, err := s.model.PredictFeatures(req.Features)
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, err)
		return
	}
	s.metrics.stableItems.Add(1)
	writeJSON(w, http.StatusOK, StableResponse{StableTempC: v})
}

// StableBatchRequest asks for ψ_stable predictions for many feature rows at
// once — one scheduling round's worth of candidate placements.
type StableBatchRequest struct {
	Rows [][]float64 `json:"rows"`
	// flat backs Rows after ParseJSON: every number of the request in one
	// slice, reused from call to call.
	flat []float64
}

// StableBatchResponse carries one prediction per request row, in order.
type StableBatchResponse struct {
	StableTempsC []float64 `json:"stable_temps_c"`
}

// serveStableBatch answers one batch out of sc alone: the body, the rows
// parsed from it, the predictions and the encoded response all live there,
// and nothing the model is handed outlives the call.
func (s *Server) serveStableBatch(w http.ResponseWriter, r *http.Request, sc *wireScratch) {
	if !sc.readBody(w, r) {
		return
	}
	req := &sc.stable
	if err := DecodeWire(sc.body, req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if overBatchLimit(w, len(req.Rows), "rows") {
		return
	}
	out := sized(sc.temps.StableTempsC, len(req.Rows))
	sc.temps.StableTempsC = out
	if err := shard.Run(len(req.Rows), s.workers, minBatchChunk, func(lo, hi int) error {
		return s.predictInto(req.Rows[lo:hi], out[lo:hi])
	}); err != nil {
		// A row error rejects the whole batch: rows are validated before
		// evaluation, so any error means malformed input, not a partial
		// result. A chunk numbers its rows from its own start; one pass
		// over the whole batch stops at the request's first bad row and
		// names it by its index in the request.
		writeError(w, http.StatusUnprocessableEntity, cmp.Or(s.predictInto(req.Rows, out), err))
		return
	}
	s.metrics.stableItems.Add(int64(len(req.Rows)))
	sc.writeWire(w, &sc.temps)
}

// predictInto predicts rows into out on a scratch off the free list.
func (s *Server) predictInto(rows [][]float64, out []float64) error {
	scratch := s.scratch.Get()
	defer s.scratch.Put(scratch)
	return s.model.PredictBatchInto(rows, out, scratch)
}

// writeJSON encodes v before the status line goes out, so a value
// encoding/json refuses (a NaN or ±Inf float) answers 500 with an error
// body rather than the chosen status and no body at all.
func writeJSON(w http.ResponseWriter, status int, v any) {
	sc := wirePool.Get().(*wireScratch)
	buf := bytes.NewBuffer(sc.resp[:0])
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		log.Printf("predictserver: encoding response: %v", err)
		status = http.StatusInternalServerError
		buf.Reset()
		_ = json.NewEncoder(buf).Encode(map[string]string{"error": err.Error()}) // a string map always encodes
	}
	sc.resp = buf.Bytes()
	writeBody(w, status, sc.resp)
	sc.release()
}

// writeBody sends one complete JSON response.
func writeBody(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	if _, err := w.Write(body); err != nil {
		log.Printf("predictserver: writing response: %v", err)
	}
}

// overBatchLimit answers 413 when a batch holds more than MaxBatchItems
// items (named by kind) and reports whether it did.
func overBatchLimit(w http.ResponseWriter, n int, kind string) bool {
	if n > MaxBatchItems {
		writeError(w, http.StatusRequestEntityTooLarge, fmt.Errorf("batch of %d %s exceeds limit %d", n, kind, MaxBatchItems))
	}
	return n > MaxBatchItems
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// wireScratch is what one request of a typed-codec route needs, pooled
// whole: the buffered body, the decoded requests with the slices their
// parsers reuse, the values handed to and filled by the fleet, and the
// encoded response. writeJSON borrows one for resp alone.
type wireScratch struct {
	body, resp []byte
	stable     StableBatchRequest
	temps      StableBatchResponse
	ingest     FleetIngestRequest
	readings   []fleet.Reading
	results    []fleet.IngestResult
	answer     FleetIngestResponse
	place      FleetPlaceBatchRequest
	placed     FleetPlaceBatchResponse
}

var wirePool = sync.Pool{New: func() any { return new(wireScratch) }}

// maxPooledScratchBytes is the largest body or response a scratch may carry
// back into the pool: one oversized request must not pin its buffers for
// every later one. What is decoded is bounded by its body (at worst 16 bytes
// of readings per byte of "{},"), the decisions a count multiplies by the
// response (3 bytes per byte of `{"vm_id":"","status":"placed"},`), so the
// two byte buffers bound the rest. 1 MiB holds a 2,500-row stable batch or an
// 8,000-reading ingest.
const maxPooledScratchBytes = 1 << 20

// release returns sc to the pool unless a request grew it past
// maxPooledScratchBytes.
func (sc *wireScratch) release() {
	if cap(sc.body) <= maxPooledScratchBytes && cap(sc.resp) <= maxPooledScratchBytes {
		wirePool.Put(sc)
	}
}

// readBody buffers the request body into sc.body, at most maxBatchBodyBytes
// of it, writing the error response (413 oversized, 400 otherwise) and
// reporting false on failure.
func (sc *wireScratch) readBody(w http.ResponseWriter, r *http.Request) bool {
	if r.ContentLength > maxBatchBodyBytes {
		writeBodyError(w, &http.MaxBytesError{Limit: maxBatchBodyBytes})
		return false
	}
	body := http.MaxBytesReader(w, r.Body, maxBatchBodyBytes)
	buf := sc.body[:0]
	if n := int(r.ContentLength); n >= cap(buf) {
		buf = make([]byte, 0, n+1) // one spare byte: EOF shows without growing
	}
	for {
		if len(buf) == cap(buf) {
			// Doubling, so a body of undeclared length costs at most
			// twice its size in copies.
			buf = append(make([]byte, 0, 2*cap(buf)+512), buf...)
		}
		n, err := body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			sc.body = buf
			return true
		}
		if err != nil {
			writeBodyError(w, err)
			return false
		}
	}
}

// writeWire answers 200 with v and the newline json.Encoder ends a value
// with — the bytes writeJSON would send, which is where a value the typed
// encoder does not cover goes.
func (sc *wireScratch) writeWire(w http.ResponseWriter, v WireMessage) {
	out, ok := v.AppendJSON(sc.resp[:0])
	if !ok {
		writeJSON(w, http.StatusOK, v)
		return
	}
	sc.resp = append(out, '\n')
	writeBody(w, http.StatusOK, sc.resp)
}
