package predictserver

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"

	"vmtherm/internal/core"
	"vmtherm/internal/engine"
	"vmtherm/internal/shard"
	"vmtherm/internal/telemetry"
)

// maxSessions bounds the live HTTP sessions. A client that never deletes
// would otherwise grow the server until it runs out of memory; 65,536
// sessions hold about 13 MB. The idle sweep (EvictIdleSessions) frees the
// slots such a client leaves behind.
const maxSessions = 1 << 16

var (
	// errSessionLimit refuses a create at the live-session cap.
	errSessionLimit = errors.New("session limit reached")
	// errUnknownSession answers a session id the store does not hold.
	errUnknownSession = errors.New("unknown session")
	// errImplausibleReading refuses a temperature outside the telemetry
	// plausibility bounds (NaN, ±Inf, below −40 °C, above 150 °C):
	// calibrating on it would corrupt the session's γ for every prediction
	// that follows. The "engine:" prefix is part of the bytes the observe
	// route answers, as is the implausible-anchor message's in newSession.
	errImplausibleReading = errors.New("engine: implausible temperature reading")
)

// sessionStore holds the dynamic prediction sessions clients drive by id:
// create at (φ(0), ψ_stable), observe φ(t), ask ψ(t + Δ_gap), delete. Each
// session is a core.DynamicPredictor on the shape its create asked for, so
// the store only keeps sessions; the calibration and the prediction are
// core's. All methods are safe for concurrent use.
type sessionStore struct {
	mu   sync.RWMutex
	byID map[string]*session
	// live counts the sessions in byID plus the creates in flight; limit
	// bounds it (maxSessions outside tests). See create.
	live   atomic.Int64
	limit  int64
	nextID atomic.Uint64
	// clock is server time in seconds from the store's start, non-decreasing:
	// what a session's idle time is read on.
	clock func() float64
}

// session is one client's predictor, the mutex that serializes it, and the
// clock's time at its last create, observe or predict, in whole seconds
// rounded up so a sweep never evicts it early.
type session struct {
	mu    sync.Mutex
	pred  core.DynamicPredictor
	seenS atomic.Uint32
}

func newSessionStore(clock func() float64) *sessionStore {
	return &sessionStore{byID: make(map[string]*session), limit: maxSessions, clock: clock}
}

// touch stamps s with the store's clock.
func (st *sessionStore) touch(s *session) { s.seenS.Store(uint32(math.Ceil(st.clock()))) }

// count reports the live sessions (with the creates in flight).
func (st *sessionStore) count() int { return int(st.live.Load()) }

// get looks a session up by id, stamping it.
func (st *sessionStore) get(id string) (*session, error) {
	st.mu.RLock()
	s, ok := st.byID[id]
	st.mu.RUnlock()
	if !ok {
		return nil, errUnknownSession
	}
	st.touch(s)
	return s, nil
}

// create opens a session anchored at (req.Phi0, stableC) on the curve shape
// and calibration the request's knobs give, each zero knob taking the
// paper's default, and returns its id ("s1", "s2", ...). It takes a slot
// under limit by compare-and-swap rather than add-and-undo, so the cap holds
// exactly under concurrent creates and a refused create never makes another
// see the cap; ids go to reserved creates only.
func (st *sessionStore) create(req *SessionRequest, stableC float64) (string, error) {
	for {
		n := st.live.Load()
		if n >= st.limit {
			return "", fmt.Errorf("%w: %d live sessions; delete one to create another", errSessionLimit, st.limit)
		}
		if st.live.CompareAndSwap(n, n+1) {
			break
		}
	}
	id := "s" + strconv.FormatUint(st.nextID.Add(1), 10)
	s, err := newSession(req, stableC)
	if err != nil {
		st.live.Add(-1)
		return "", err
	}
	st.touch(s)
	st.mu.Lock()
	st.byID[id] = s
	st.mu.Unlock()
	return id, nil
}

// newSession anchors a predictor for req. The anchors come from outside the
// service, so each must be a temperature a sensor could read
// (telemetry.ClassifyTemp).
func newSession(req *SessionRequest, stableC float64) (*session, error) {
	if telemetry.ClassifyTemp(req.Phi0) != telemetry.RejectNone || telemetry.ClassifyTemp(stableC) != telemetry.RejectNone {
		return nil, fmt.Errorf("engine: implausible anchor: phi0 %v °C, stable temperature %v °C (want finite, in [%v, %v])",
			req.Phi0, stableC, telemetry.MinPlausibleTempC, telemetry.MaxPlausibleTempC)
	}
	d := core.DefaultDynamicConfig()
	sh, err := core.NewShape(cmp.Or(req.TBreakS, core.DefaultTBreakS), cmp.Or(req.CurveDeltaS, core.DefaultCurveDelta),
		core.DynamicConfig{
			Lambda:       cmp.Or(req.Lambda, d.Lambda),
			UpdateEveryS: cmp.Or(req.UpdateEveryS, d.UpdateEveryS),
			GapS:         cmp.Or(req.GapS, d.GapS),
		})
	if err != nil {
		return nil, err
	}
	s := new(session)
	if err := s.pred.Anchor(req.Phi0, stableC, &sh); err != nil {
		return nil, err
	}
	return s, nil
}

// observe feeds φ(t) into a session and returns its calibration γ after.
// An implausible temperature is refused before the session is looked up.
func (st *sessionStore) observe(id string, t, tempC float64) (gamma float64, err error) {
	if telemetry.ClassifyTemp(tempC) != telemetry.RejectNone {
		return 0, errImplausibleReading
	}
	s, err := st.get(id)
	if err != nil {
		return 0, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pred.Observe(t, tempC, nil)
	return s.pred.Gamma(), nil
}

// predict answers a session's ψ(t + Δ_gap) and the γ it used.
func (st *sessionStore) predict(id string, t float64) (tempC, gamma float64, err error) {
	s, err := st.get(id)
	if err != nil {
		return 0, 0, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pred.Predict(t, nil), s.pred.Gamma(), nil
}

// remove deletes a session, reporting whether it existed.
func (st *sessionStore) remove(id string) bool {
	st.mu.Lock()
	_, ok := st.byID[id]
	delete(st.byID, id)
	st.mu.Unlock()
	if ok {
		st.live.Add(-1)
	}
	return ok
}

// evictIdle removes every session not created, observed or predicted for
// more than engine.EvictAfterS of the clock's time — the horizon after which
// the fleet forgets a dark host — and reports how many it removed.
func (st *sessionStore) evictIdle() int {
	cutoff := st.clock() - engine.EvictAfterS
	n := 0
	st.mu.Lock()
	for id, s := range st.byID {
		if float64(s.seenS.Load()) < cutoff {
			delete(st.byID, id)
			n++
		}
	}
	st.mu.Unlock()
	st.live.Add(-int64(n))
	return n
}

// EvictIdleSessions removes every session not created, observed or
// predicted for the engine's eviction horizon (900 s) of server time, frees
// their slots under the cap, and reports how many it removed. The daemon
// runtime calls it periodically.
func (s *Server) EvictIdleSessions() int {
	n := s.sessions.evictIdle()
	s.metrics.sessionsEvicted.Add(int64(n))
	return n
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
	id, err := s.sessions.create(&req, stable)
	switch {
	case errors.Is(err, errSessionLimit):
		s.metrics.sessionsRefused.Add(1)
		writeError(w, http.StatusTooManyRequests, err)
	case err != nil:
		writeError(w, http.StatusUnprocessableEntity, err)
	default:
		writeJSON(w, http.StatusCreated, SessionResponse{ID: id, StableTempC: stable})
	}
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
	gamma, err := s.sessions.observe(r.PathValue("id"), req.T, req.TempC)
	switch {
	case errors.Is(err, errImplausibleReading):
		writeError(w, http.StatusUnprocessableEntity, err)
	case err != nil:
		writeError(w, http.StatusNotFound, err)
	default:
		s.metrics.observeItems.Add(1)
		writeJSON(w, http.StatusOK, ObserveResponse{Gamma: gamma})
	}
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
	tempC, gamma, err := s.sessions.predict(r.PathValue("id"), t)
	if err != nil {
		writeError(w, http.StatusNotFound, err)
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
// meaningless) when the session does not exist or the reading is implausible.
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
	if !decodeBody(w, r, &req, maxBatchBodyBytes) || overBatchLimit(w, len(req.Items), "items") {
		return
	}
	results := make([]ObserveBatchResult, len(req.Items))
	_ = shard.Run(len(req.Items), s.workers, minBatchChunk, func(lo, hi int) error {
		var served int64
		for i := lo; i < hi; i++ {
			item := req.Items[i]
			gamma, err := s.sessions.observe(item.ID, item.T, item.TempC)
			switch {
			case errors.Is(err, errImplausibleReading):
				results[i].Error = "implausible reading"
			case err != nil:
				results[i].Error = err.Error()
			default:
				results[i].Gamma = gamma
				served++
			}
		}
		s.metrics.observeItems.Add(served)
		return nil
	})
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
	if !decodeBody(w, r, &req, maxBatchBodyBytes) || overBatchLimit(w, len(req.Items), "items") {
		return
	}
	results := make([]PredictBatchResult, len(req.Items))
	_ = shard.Run(len(req.Items), s.workers, minBatchChunk, func(lo, hi int) error {
		var served int64
		for i := lo; i < hi; i++ {
			item := req.Items[i]
			tempC, gamma, err := s.sessions.predict(item.ID, item.T)
			if err != nil {
				results[i].Error = err.Error()
				continue
			}
			results[i].TempC, results[i].Gamma = tempC, gamma
			served++
		}
		s.metrics.predictItems.Add(served)
		return nil
	})
	writeJSON(w, http.StatusOK, PredictBatchResponse{Results: results})
}

func (s *Server) handleDeleteSession(w http.ResponseWriter, r *http.Request) {
	if !s.sessions.remove(r.PathValue("id")) {
		writeError(w, http.StatusNotFound, errUnknownSession)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "deleted"})
}
