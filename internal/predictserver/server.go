// Package predictserver implements the HTTP prediction service behind
// cmd/vmtherm-predictd: stable-temperature prediction from Eq. (2) feature
// vectors, and per-server dynamic prediction sessions that receive online
// measurements and answer Δ_gap-ahead queries — the deployment loop the
// paper describes ("the model received data collected online and output
// prediction values").
//
// The service is built for fleet-scale batch traffic: thermal-aware
// schedulers consume predictions for hundreds of hosts per round, so
// alongside the single-item endpoints it serves batch variants backed by
// the unified session engine (internal/engine — the same sharded
// striped-lock lifecycle the fleet control plane drives) and a worker pool,
// with the stable path funnelled through the SVM batch kernel.
package predictserver

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"

	"vmtherm/internal/checkpoint"
	"vmtherm/internal/core"
	"vmtherm/internal/engine"
	"vmtherm/internal/fleet"
	"vmtherm/internal/scenario"
)

// MaxBatchItems caps the item count of one batch request. A datacenter
// round larger than this should be split into several requests.
const MaxBatchItems = 65536

// MaxHostIDBytes caps the host_id of a pushed reading at the longest DNS
// name. The ingest pipeline bounds how many readings it holds, and the host
// table how many hosts; this bounds what each of them can cost.
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
// sessions. Create with New; it is safe for concurrent use. Call Close when
// done to release the worker pool.
type Server struct {
	model *core.StablePredictor
	// eng is the unified session engine: the same lifecycle implementation
	// the fleet control plane drives, here keyed by service-issued ids.
	eng  *engine.Engine
	pool *workerPool
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
	// scratch pools PredictScratch instances across batch requests so the
	// stable-batch hot path reuses scaled-feature and kernel buffers instead
	// of allocating them per chunk.
	scratch sync.Pool
}

// serverMetrics counts served work for the /metrics exposition.
type serverMetrics struct {
	stableItems  atomic.Int64 // ψ_stable predictions served (single + batch)
	observeItems atomic.Int64 // session observations served (single + batch)
	predictItems atomic.Int64 // session predictions served (single + batch)
	ingestItems  atomic.Int64 // readings accepted via POST /v1/fleet/ingest
	// Placement decisions served (single + batch endpoints), by status, and
	// the size of the last batch served (gauge).
	placePlaced    atomic.Int64
	placeQueued    atomic.Int64
	placeRejected  atomic.Int64
	placeBatchSize atomic.Int64
}

// Option customizes a Server.
type Option func(*Server)

// WithWorkers sets the worker-pool size for batch evaluation (default:
// GOMAXPROCS).
func WithWorkers(n int) Option {
	return func(s *Server) {
		if n > 0 {
			s.pool = newWorkerPool(n)
		}
	}
}

// New creates a server around a trained stable model.
func New(model *core.StablePredictor, opts ...Option) (*Server, error) {
	if model == nil {
		return nil, errors.New("predictserver: nil model")
	}
	eng, err := engine.New(engine.DefaultConfig())
	if err != nil {
		return nil, err
	}
	s := &Server{
		model: model,
		eng:   eng,
	}
	for _, o := range opts {
		o(s)
	}
	if s.pool == nil {
		s.pool = newWorkerPool(0)
	}
	return s, nil
}

// Close stops the worker pool. The server must not serve requests after
// Close.
func (s *Server) Close() {
	s.pool.close()
}

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
		{"POST /v1/stable/batch", s.handleStableBatch},
		{"POST /v1/session", s.handleCreateSession},
		{"POST /v1/session/{id}/observe", s.handleObserve},
		{"GET /v1/session/{id}/predict", s.handlePredict},
		{"POST /v1/session/batch/observe", s.handleObserveBatch},
		{"POST /v1/session/batch/predict", s.handlePredictBatch},
		{"DELETE /v1/session/{id}", s.handleDeleteSession},
		{"GET /v1/fleet/hotspots", s.handleFleetHotspots},
		{"GET /v1/fleet/scenario", s.handleFleetScenario},
		{"GET /v1/fleet/checkpoint", s.handleFleetCheckpoint},
		{"POST /v1/fleet/place", s.handleFleetPlace},
		{"POST /v1/fleet/place/batch", s.handleFleetPlaceBatch},
		{"POST /v1/fleet/ingest", s.handleFleetIngest},
		{"GET /metrics", s.handleMetrics},
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

func (s *Server) handleStableBatch(w http.ResponseWriter, r *http.Request) {
	sc := wirePool.Get().(*wireScratch)
	s.serveStableBatch(w, r, sc)
	sc.release()
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
	if len(req.Rows) > MaxBatchItems {
		writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Errorf("batch of %d rows exceeds limit %d", len(req.Rows), MaxBatchItems))
		return
	}
	out := sized(sc.temps.StableTempsC, len(req.Rows))
	sc.temps.StableTempsC = out
	var (
		errMu    sync.Mutex
		firstErr error
	)
	s.pool.dispatch(len(req.Rows), func(lo, hi int) {
		scratch, _ := s.scratch.Get().(*core.PredictScratch)
		if scratch == nil {
			scratch = new(core.PredictScratch)
		}
		err := s.model.PredictBatchInto(req.Rows[lo:hi], out[lo:hi], scratch)
		s.scratch.Put(scratch)
		if err != nil {
			// A row error rejects the whole batch: rows are validated
			// before evaluation, so any error means malformed input,
			// not a partial result.
			errMu.Lock()
			if firstErr == nil {
				firstErr = err
			}
			errMu.Unlock()
		}
	})
	if firstErr != nil {
		writeError(w, http.StatusUnprocessableEntity, firstErr)
		return
	}
	s.metrics.stableItems.Add(int64(len(req.Rows)))
	sc.writeWire(w, &sc.temps)
}

// SessionRequest opens a dynamic prediction session. ψ_stable comes either
// directly (StableTempC) or from the model (Features). Zero-valued knobs
// take the paper's defaults.
type SessionRequest struct {
	Phi0         float64   `json:"phi0"`
	StableTempC  *float64  `json:"stable_temp_c,omitempty"`
	Features     []float64 `json:"features,omitempty"`
	Lambda       float64   `json:"lambda,omitempty"`
	UpdateEveryS float64   `json:"update_every_s,omitempty"`
	GapS         float64   `json:"gap_s,omitempty"`
	TBreakS      float64   `json:"t_break_s,omitempty"`
	CurveDeltaS  float64   `json:"curve_delta_s,omitempty"`
}

// SessionResponse identifies the created session.
type SessionResponse struct {
	ID          string  `json:"id"`
	StableTempC float64 `json:"stable_temp_c"`
}

func (s *Server) handleCreateSession(w http.ResponseWriter, r *http.Request) {
	var req SessionRequest
	if !decodeBody(w, r, &req, maxItemBodyBytes) {
		return
	}
	var stable float64
	switch {
	case req.StableTempC != nil:
		stable = *req.StableTempC
	case len(req.Features) > 0:
		v, err := s.model.PredictFeatures(req.Features)
		if err != nil {
			writeError(w, http.StatusUnprocessableEntity, err)
			return
		}
		stable = v
	default:
		writeError(w, http.StatusBadRequest, errors.New("need stable_temp_c or features"))
		return
	}

	id := s.eng.NewID()
	err := s.eng.Create(id, engine.SessionParams{
		Phi0:         req.Phi0,
		StableC:      stable,
		Lambda:       req.Lambda,
		UpdateEveryS: req.UpdateEveryS,
		GapS:         req.GapS,
		TBreakS:      req.TBreakS,
		CurveDeltaS:  req.CurveDeltaS,
	})
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, err)
		return
	}
	writeJSON(w, http.StatusCreated, SessionResponse{ID: id, StableTempC: stable})
}

// ObserveRequest feeds one measurement φ(t) into a session.
type ObserveRequest struct {
	T     float64 `json:"t"`
	TempC float64 `json:"temp_c"`
}

// ObserveResponse reports the calibration after the observation.
type ObserveResponse struct {
	Gamma float64 `json:"gamma"`
}

func (s *Server) handleObserve(w http.ResponseWriter, r *http.Request) {
	var req ObserveRequest
	if !decodeBody(w, r, &req, maxItemBodyBytes) {
		return
	}
	gamma, err := s.eng.Observe(r.PathValue("id"), req.T, req.TempC)
	if err != nil {
		writeError(w, http.StatusNotFound, errors.New("unknown session"))
		return
	}
	s.metrics.observeItems.Add(1)
	writeJSON(w, http.StatusOK, ObserveResponse{Gamma: gamma})
}

// PredictResponse answers a dynamic prediction query.
type PredictResponse struct {
	TempC float64 `json:"temp_c"`
	Gamma float64 `json:"gamma"`
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	// t is a JSON number, as it is in every request body: strconv's own
	// grammar would let NaN, Inf, hex floats and digit separators through.
	q := r.URL.Query().Get("t")
	t, n, ok := parseNumber([]byte(q))
	if !ok || n != len(q) {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad t: %q is not a finite JSON number", q))
		return
	}
	tempC, gamma, err := s.eng.Predict(r.PathValue("id"), t)
	if err != nil {
		writeError(w, http.StatusNotFound, errors.New("unknown session"))
		return
	}
	s.metrics.predictItems.Add(1)
	writeJSON(w, http.StatusOK, PredictResponse{TempC: tempC, Gamma: gamma})
}

// ObserveBatchItem feeds one measurement into one session.
type ObserveBatchItem struct {
	ID    string  `json:"id"`
	T     float64 `json:"t"`
	TempC float64 `json:"temp_c"`
}

// ObserveBatchRequest carries one fleet round of measurements.
type ObserveBatchRequest struct {
	Items []ObserveBatchItem `json:"items"`
}

// ObserveBatchResult is the per-item outcome; Error is set (and Gamma
// meaningless) when the item's session does not exist.
type ObserveBatchResult struct {
	Gamma float64 `json:"gamma"`
	Error string  `json:"error,omitempty"`
}

// ObserveBatchResponse answers item-for-item, in request order.
type ObserveBatchResponse struct {
	Results []ObserveBatchResult `json:"results"`
}

func (s *Server) handleObserveBatch(w http.ResponseWriter, r *http.Request) {
	var req ObserveBatchRequest
	if !decodeBody(w, r, &req, maxBatchBodyBytes) {
		return
	}
	if len(req.Items) > MaxBatchItems {
		writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Errorf("batch of %d items exceeds limit %d", len(req.Items), MaxBatchItems))
		return
	}
	results := make([]ObserveBatchResult, len(req.Items))
	s.pool.dispatch(len(req.Items), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			item := req.Items[i]
			gamma, err := s.eng.Observe(item.ID, item.T, item.TempC)
			if err != nil {
				results[i].Error = "unknown session"
				continue
			}
			results[i].Gamma = gamma
		}
	})
	s.metrics.observeItems.Add(int64(len(req.Items)))
	writeJSON(w, http.StatusOK, ObserveBatchResponse{Results: results})
}

// PredictBatchItem queries one session at one time.
type PredictBatchItem struct {
	ID string  `json:"id"`
	T  float64 `json:"t"`
}

// PredictBatchRequest carries one fleet round of prediction queries.
type PredictBatchRequest struct {
	Items []PredictBatchItem `json:"items"`
}

// PredictBatchResult is the per-item outcome; Error is set (and the values
// meaningless) when the item's session does not exist.
type PredictBatchResult struct {
	TempC float64 `json:"temp_c"`
	Gamma float64 `json:"gamma"`
	Error string  `json:"error,omitempty"`
}

// PredictBatchResponse answers item-for-item, in request order.
type PredictBatchResponse struct {
	Results []PredictBatchResult `json:"results"`
}

func (s *Server) handlePredictBatch(w http.ResponseWriter, r *http.Request) {
	var req PredictBatchRequest
	if !decodeBody(w, r, &req, maxBatchBodyBytes) {
		return
	}
	if len(req.Items) > MaxBatchItems {
		writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Errorf("batch of %d items exceeds limit %d", len(req.Items), MaxBatchItems))
		return
	}
	results := make([]PredictBatchResult, len(req.Items))
	s.pool.dispatch(len(req.Items), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			item := req.Items[i]
			tempC, gamma, err := s.eng.Predict(item.ID, item.T)
			if err != nil {
				results[i].Error = "unknown session"
				continue
			}
			results[i].TempC, results[i].Gamma = tempC, gamma
		}
	})
	s.metrics.predictItems.Add(int64(len(req.Items)))
	writeJSON(w, http.StatusOK, PredictBatchResponse{Results: results})
}

func (s *Server) handleDeleteSession(w http.ResponseWriter, r *http.Request) {
	if !s.eng.Delete(r.PathValue("id")) {
		writeError(w, http.StatusNotFound, errors.New("unknown session"))
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "deleted"})
}

// SessionCount reports active dynamic sessions (for observability).
func (s *Server) SessionCount() int {
	return s.eng.Len()
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
