// Package engine is the unified per-host session engine behind both the
// fleet control plane and the prediction service: one implementation of the
// paper's online lifecycle — create a session anchored at (φ(0), ψ_stable),
// observe φ(t), calibrate every Δ_update (Eqs. 4–6), re-anchor when the
// batch ψ_stable prediction moves (deployment changed), answer Δ_gap-ahead
// queries (Eq. 8), widen uncertainty as telemetry goes stale, and evict
// sessions whose telemetry has been dark for too long.
//
// The engine is built for fleet-scale concurrency and round throughput:
// sessions live in a sharded, striped-lock map (per-shard RWMutex over the
// id→session map, per-session mutex over the DynamicPredictor), so hundreds
// of monitoring agents observe and predict fully in parallel while the
// control loop runs batch rounds over the same sessions.
//
// A round has two front-ends over one per-host body (roundHost). RoundSlots
// is the slot-indexed one: the caller keeps each host's reading, anchor and
// a cached session Handle in a []Slot parallel to its id list, so a warm
// round hashes no string and takes no shard lock. Round is the keyed one —
// maps of readings and anchors — for callers without a host table; it stages
// the maps into engine-owned slots and runs the same body. Both append into
// a caller-owned buffer and allocate only when a session is first created: a
// re-anchor resets the existing session in place.
//
// A Handle is served only while its session is still the one registered
// under the id. Every way out of the session map (Delete, eviction, Restore,
// a first-sight create that replaces a racing one) marks the session removed
// under the shard lock, and an empty or removed Handle falls back to the
// keyed lookup — so a session deleted since is never served stale and one
// created since (by the streaming path, say) is never missed.
package engine

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"sync"
	"sync/atomic"

	"vmtherm/internal/core"
	"vmtherm/internal/telemetry"
)

// Config parameterizes the session lifecycle. Zero values take defaults via
// withDefaults; see DefaultConfig for the reference shape (the paper's
// running-example parameters).
type Config struct {
	// Lambda is the calibration learning rate λ (paper: 0.8).
	Lambda float64
	// UpdateEveryS is Δ_update, the calibration interval.
	UpdateEveryS float64
	// GapS is Δ_gap, the prediction horizon.
	GapS float64
	// TBreakS and CurveDeltaS shape the Eq. (3) pre-defined curve.
	TBreakS, CurveDeltaS float64
	// StaleAfterS is how old a host's telemetry may get before the host is
	// degraded: its prediction is marked stale (callers exclude it from
	// hotspot maps) and calibration stops until fresh telemetry arrives.
	StaleAfterS float64
	// EvictAfterS is how old a host's telemetry may get before its session
	// is evicted entirely (and its last reading forgotten): a host dark this
	// long is gone, not merely degraded. 0 disables eviction.
	EvictAfterS float64
	// ReanchorEpsC re-anchors a session when its predicted ψ_stable moves by
	// more than this (the deployment changed underneath it).
	ReanchorEpsC float64
	// UncertaintyBaseC and UncertaintyPerSC shape per-prediction uncertainty:
	// base + perS · staleness.
	UncertaintyBaseC, UncertaintyPerSC float64
	// Shards is the stripe count of the session map; it is rounded up to a
	// power of two so the hash reduces with a mask (default 32).
	Shards int
	// RoundWorkers bounds the worker pool Round shards its per-host pass
	// across at fleet scale (>= 1024 hosts). Default 1 keeps rounds serial
	// and unconditionally allocation-free; any value produces identical
	// results (per-host work is independent, evictions and output order are
	// serialized).
	RoundWorkers int
}

// DefaultConfig uses the paper's dynamic parameters (λ=0.8, Δ_update=15 s,
// Δ_gap=60 s, t_break=600 s) with the fleet staleness policy.
func DefaultConfig() Config {
	return Config{
		Lambda:           core.DefaultLambda,
		UpdateEveryS:     15,
		GapS:             60,
		TBreakS:          600,
		CurveDeltaS:      core.DefaultCurveDelta,
		StaleAfterS:      45,
		EvictAfterS:      900,
		ReanchorEpsC:     1.0,
		UncertaintyBaseC: 0.5,
		UncertaintyPerSC: 0.05,
		Shards:           32,
	}
}

// withDefaults fills zero-valued fields from DefaultConfig.
func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.Lambda == 0 {
		c.Lambda = d.Lambda
	}
	if c.UpdateEveryS == 0 {
		c.UpdateEveryS = d.UpdateEveryS
	}
	if c.GapS == 0 {
		c.GapS = d.GapS
	}
	if c.TBreakS == 0 {
		c.TBreakS = d.TBreakS
	}
	if c.CurveDeltaS == 0 {
		c.CurveDeltaS = d.CurveDeltaS
	}
	if c.StaleAfterS == 0 {
		c.StaleAfterS = 3 * c.UpdateEveryS
	}
	if c.EvictAfterS == 0 {
		c.EvictAfterS = 20 * c.StaleAfterS
	}
	if c.ReanchorEpsC == 0 {
		c.ReanchorEpsC = d.ReanchorEpsC
	}
	if c.UncertaintyBaseC == 0 {
		c.UncertaintyBaseC = d.UncertaintyBaseC
	}
	if c.UncertaintyPerSC == 0 {
		c.UncertaintyPerSC = d.UncertaintyPerSC
	}
	if c.Shards == 0 {
		c.Shards = d.Shards
	}
	return c
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Lambda < 0 || c.Lambda > 1 {
		return fmt.Errorf("engine: lambda %v outside [0,1]", c.Lambda)
	}
	if c.UpdateEveryS <= 0 || c.GapS <= 0 {
		return fmt.Errorf("engine: intervals must be > 0 (update %v, gap %v)", c.UpdateEveryS, c.GapS)
	}
	if c.StaleAfterS <= 0 {
		return fmt.Errorf("engine: stale-after must be > 0, got %v", c.StaleAfterS)
	}
	if c.EvictAfterS < 0 {
		return fmt.Errorf("engine: evict-after must be >= 0, got %v", c.EvictAfterS)
	}
	if c.EvictAfterS > 0 && c.EvictAfterS <= c.StaleAfterS {
		return fmt.Errorf("engine: evict-after %v must exceed stale-after %v", c.EvictAfterS, c.StaleAfterS)
	}
	if c.Shards < 1 {
		return fmt.Errorf("engine: shards %d < 1", c.Shards)
	}
	if c.RoundWorkers < 0 {
		return fmt.Errorf("engine: round workers %d < 0", c.RoundWorkers)
	}
	return nil
}

// ErrNoSession is returned for operations on an unknown session id.
var ErrNoSession = errors.New("engine: no such session")

// ErrImplausibleReading is returned when an observed temperature fails the
// telemetry plausibility bounds (NaN, ±Inf, below −40 °C, above 150 °C):
// calibrating on it would corrupt the session's γ for every prediction
// that follows.
var ErrImplausibleReading = errors.New("engine: implausible temperature reading")

// session is one host's dynamic prediction state: an Eq. (3) curve anchored
// at (anchorAt, φ(anchorAt)) with the ψ_stable the batch model last
// predicted for the host's deployment, the online calibrator (both inside
// the by-value predictor, so a session is one allocation and re-anchors in
// place), and the mutex that serializes access to the (not
// concurrency-safe) predictor.
type session struct {
	mu       sync.Mutex
	pred     core.DynamicPredictor
	stable   float64
	anchorAt float64
	// lastAtS is the engine-time instant of the newest telemetry observed
	// into this session (the anchor instant until the first observe). The
	// streaming path reads it to compute staleness without a latest-reading
	// map; guarded by mu like the predictor.
	lastAtS float64
	// removed is set, under the shard lock, the moment the session leaves
	// the session map: the validity rule of every Handle that cached it.
	removed atomic.Bool
}

// localT converts engine time to session-local curve time.
func (s *session) localT(t float64) float64 { return t - s.anchorAt }

// feed applies one measurement; the caller holds mu.
func (s *session) feed(t, tempC float64) {
	s.pred.Observe(s.localT(t), tempC)
	if t > s.lastAtS {
		s.lastAtS = t
	}
}

// observe feeds one measurement and returns the resulting γ.
func (s *session) observe(t, tempC float64) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.feed(t, tempC)
	return s.pred.Gamma()
}

// predict answers ψ(t + Δ_gap) and the γ it used.
func (s *session) predict(t float64) (tempC, gamma float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pred.Predict(s.localT(t)), s.pred.Gamma()
}

type shard struct {
	mu       sync.RWMutex
	sessions map[string]*session
}

// Engine is the sharded session store plus the round executor. Create with
// New. All methods are safe for concurrent use, with one carve-out: Round
// must not overlap another Round on the same engine (it owns the shared
// round scratch); it is safe against concurrent Observe/Predict/Create/
// Delete traffic.
type Engine struct {
	cfg    Config
	shards []shard
	mask   uint64
	count  atomic.Int64
	nextID atomic.Uint64
	// scratch holds the sharded round's per-host results, keyed the slots
	// the keyed Round stages its maps into; both are owned by the single
	// in-flight round and reused across rounds.
	scratch []roundSlot
	keyed   []Slot
}

// New builds an engine.
func New(cfg Config) (*Engine, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := 1
	for n < cfg.Shards {
		n <<= 1
	}
	cfg.Shards = n
	e := &Engine{cfg: cfg, shards: make([]shard, n), mask: uint64(n - 1)}
	for i := range e.shards {
		e.shards[i].sessions = make(map[string]*session)
	}
	return e, nil
}

// Config returns the resolved configuration.
func (e *Engine) Config() Config { return e.cfg }

// shardFor hashes a session id onto its stripe (FNV-1a).
func (e *Engine) shardFor(id string) *shard {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	var h uint64 = offset64
	for i := 0; i < len(id); i++ {
		h ^= uint64(id[i])
		h *= prime64
	}
	return &e.shards[h&e.mask]
}

// get looks a session up by id.
func (e *Engine) get(id string) (*session, bool) {
	sh := e.shardFor(id)
	sh.mu.RLock()
	s, ok := sh.sessions[id]
	sh.mu.RUnlock()
	return s, ok
}

// NewID reserves a fresh session id ("s1", "s2", ...), the service-facing
// naming scheme; fleet callers use host ids instead.
func (e *Engine) NewID() string {
	return "s" + strconv.FormatUint(e.nextID.Add(1), 10)
}

// SessionParams describe a session at creation. Zero-valued knobs take the
// engine defaults.
type SessionParams struct {
	// Phi0 is φ(0), the temperature at the anchor instant.
	Phi0 float64
	// StableC is the ψ_stable anchor.
	StableC float64
	// AnchorAtS is the engine-time instant the curve is anchored at; times
	// passed to Observe/Predict are translated to curve-local time against
	// it (0 = session-local times are engine times).
	AnchorAtS float64
	// Lambda, UpdateEveryS, GapS, TBreakS, CurveDeltaS override the engine
	// defaults for this session when non-zero.
	Lambda, UpdateEveryS, GapS, TBreakS, CurveDeltaS float64
}

// Create registers a session under id. Creating over a live id is an error;
// Delete first to rebuild.
func (e *Engine) Create(id string, p SessionParams) error {
	if id == "" {
		return errors.New("engine: empty session id")
	}
	sess := new(session)
	if err := e.anchor(sess, p); err != nil {
		return err
	}
	sh := e.shardFor(id)
	sh.mu.Lock()
	if _, dup := sh.sessions[id]; dup {
		sh.mu.Unlock()
		return fmt.Errorf("engine: session %q already exists", id)
	}
	sh.sessions[id] = sess
	sh.mu.Unlock()
	e.count.Add(1)
	return nil
}

// anchor (re)builds s from params, applying engine defaults: afterwards s is
// bit-identical to a freshly created session (γ = 0, unseeded, last
// telemetry at the anchor instant). Parameters are validated first; on error
// s is untouched. The caller owns s or holds its mutex.
func (e *Engine) anchor(s *session, p SessionParams) error {
	cfg := core.DynamicConfig{Lambda: e.cfg.Lambda, UpdateEveryS: e.cfg.UpdateEveryS, GapS: e.cfg.GapS}
	if p.Lambda != 0 {
		cfg.Lambda = p.Lambda
	}
	if p.UpdateEveryS != 0 {
		cfg.UpdateEveryS = p.UpdateEveryS
	}
	if p.GapS != 0 {
		cfg.GapS = p.GapS
	}
	tBreak := p.TBreakS
	if tBreak == 0 {
		tBreak = e.cfg.TBreakS
	}
	delta := p.CurveDeltaS
	if delta == 0 {
		delta = e.cfg.CurveDeltaS
	}
	curve := core.Curve{Phi0: p.Phi0, Stable: p.StableC, TBreakS: tBreak, DeltaS: delta}
	if err := s.pred.Reset(curve, cfg); err != nil {
		return err
	}
	s.stable, s.anchorAt, s.lastAtS = p.StableC, p.AnchorAtS, p.AnchorAtS
	return nil
}

// Observe feeds one measurement φ(t) into a session and returns the current
// calibration γ. Implausible temperatures are refused with
// ErrImplausibleReading before they can touch the calibrator.
func (e *Engine) Observe(id string, atS, tempC float64) (float64, error) {
	if telemetry.ClassifyTemp(tempC) != telemetry.RejectNone {
		return 0, ErrImplausibleReading
	}
	s, ok := e.get(id)
	if !ok {
		return 0, ErrNoSession
	}
	return s.observe(atS, tempC), nil
}

// Predict answers ψ(t + Δ_gap) for a session, with the γ it used.
func (e *Engine) Predict(id string, atS float64) (tempC, gamma float64, err error) {
	s, ok := e.get(id)
	if !ok {
		return 0, 0, ErrNoSession
	}
	tempC, gamma = s.predict(atS)
	return tempC, gamma, nil
}

// Stable returns the ψ_stable a session is currently anchored to.
func (e *Engine) Stable(id string) (float64, error) {
	s, ok := e.get(id)
	if !ok {
		return 0, ErrNoSession
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stable, nil
}

// Delete removes a session, reporting whether it existed. Fleet callers use
// it to force a re-anchor after a deployment change (placement, migration).
func (e *Engine) Delete(id string) bool {
	sh := e.shardFor(id)
	sh.mu.Lock()
	s, ok := sh.sessions[id]
	if ok {
		s.removed.Store(true)
		delete(sh.sessions, id)
	}
	sh.mu.Unlock()
	if ok {
		e.count.Add(-1)
	}
	return ok
}

// Len reports the number of live sessions.
func (e *Engine) Len() int {
	return int(e.count.Load())
}

// Prediction is one host's Δ_gap-ahead temperature estimate from a round.
type Prediction struct {
	HostID string
	// TempC is the predicted temperature at now + Δ_gap.
	TempC float64
	// UncertaintyC widens with telemetry staleness.
	UncertaintyC float64
	// StalenessS is the age of the newest telemetry behind the prediction.
	StalenessS float64
	// Stale marks hosts degraded out of hotspot maps.
	Stale bool
}

// RoundStats summarizes one Round call.
type RoundStats struct {
	// Live counts sessions that produced a prediction.
	Live int
	// AnchorFailures counts observed hosts left without a session because
	// the model produced an unusable ψ_stable anchor (graceful blindness
	// must be visible, never silent).
	AnchorFailures int
	// Reanchored counts sessions anchored this round (first sight or anchor
	// drift beyond ReanchorEpsC).
	Reanchored int
	// Forgotten counts hosts whose reading was dropped because their
	// telemetry exceeded EvictAfterS; Evicted counts those of them that had
	// a session to remove.
	Forgotten, Evicted int
	// MaxStalenessS is the oldest telemetry age seen this round.
	MaxStalenessS float64
}

// Handle caches one id's session lookup between rounds for a caller that
// keeps per-host slots. The zero Handle is valid: it resolves by key. See
// the package comment for the validity rule.
type Handle struct{ sess *session }

// Slot is one host's share of a slot-indexed round: what the caller knows
// about the host going in, and the engine's cached way back to its session.
type Slot struct {
	// Reading is the host's newest telemetry; Present says there is one.
	// RoundSlots clears Present when it forgets a host dark beyond
	// EvictAfterS.
	Reading telemetry.Reading
	Present bool
	// Anchor is this round's batch-predicted ψ_stable for the host, NaN for
	// none (an unusable anchor and no anchor at all are the same thing to a
	// round: the host keeps its session if it has one).
	Anchor float64
	// Handle is the engine's; callers only carry it along with the slot.
	Handle Handle
}

// resolve returns id's session through h, refreshing h by key when it is
// empty or its session has left the map.
func (e *Engine) resolve(h *Handle, id string) *session {
	if s := h.sess; s != nil && !s.removed.Load() {
		return s
	}
	h.sess, _ = e.get(id)
	return h.sess
}

// HandleCurrent reports whether h obeys the validity rule for id: its
// session is the one registered under id, or it is empty or marked removed
// and therefore resolves by key.
func (e *Engine) HandleCurrent(id string, h Handle) bool {
	if h.sess == nil {
		return true
	}
	if cur, _ := e.get(id); cur == h.sess {
		return true
	}
	return h.sess.removed.Load()
}

// roundParallelMinHosts gates the sharded round: below this population the
// per-host work cannot amortize the goroutine fan-out, and the serial
// path's zero-allocation contract holds unconditionally.
const roundParallelMinHosts = 1024

// roundHost runs one host's share of a round — staleness accounting,
// (re-)anchoring, calibration, Δ_gap prediction — into pred. It reports
// whether a prediction was produced and whether the host must be forgotten
// (the eviction itself, which mutates shared state, is the caller's —
// serial — responsibility). Safe for concurrent calls on distinct hosts:
// sessions live behind striped locks, the slot is the caller's own, and
// every counter lands in the caller-owned st.
func (e *Engine) roundHost(nowS float64, id string, s *Slot, st *RoundStats, pred *Prediction) (ok, evict bool) {
	r := s.Reading
	if r.AtS > nowS {
		// Clock-skewed producer: a future-stamped reading would drive
		// staleness (and uncertainty) negative and jump the calibration
		// schedule ahead; clamp it to the present instead.
		r.AtS = nowS
	}
	staleness := nowS - r.AtS
	if staleness > st.MaxStalenessS {
		st.MaxStalenessS = staleness
	}
	if e.cfg.EvictAfterS > 0 && staleness > e.cfg.EvictAfterS {
		// Dark beyond the eviction horizon: the host is gone, not merely
		// degraded. Forget the session and the fossil reading so the
		// population shrinks instead of accumulating ghosts.
		return false, true
	}
	stale := staleness > e.cfg.StaleAfterS

	anchored := !math.IsNaN(s.Anchor)
	params := SessionParams{Phi0: r.TempC, StableC: s.Anchor, AnchorAtS: r.AtS}
	sess := e.resolve(&s.Handle, id)
	switch {
	case sess != nil:
		sess.mu.Lock()
		// Re-anchor in place when the deployment's predicted ψ_stable moved:
		// the old curve no longer describes this host. On failure (a
		// degenerate reading) the session keeps serving its old curve and
		// nothing counts.
		if anchored && math.Abs(s.Anchor-sess.stable) > e.cfg.ReanchorEpsC && e.anchor(sess, params) == nil {
			st.Reanchored++
		}
	case anchored:
		// First sight: the one allocation a session ever costs.
		if sess = e.adopt(id, params); sess != nil {
			s.Handle.sess = sess
			st.Reanchored++
			sess.mu.Lock()
		}
	}
	if sess == nil {
		// No session and no usable anchor to build one from: counted, so
		// the blindness is observable.
		st.AnchorFailures++
		return false, false
	}
	if !stale {
		// Calibration: Eqs. (4)–(6) on the session's Δ_update schedule.
		sess.feed(r.AtS, r.TempC)
	}
	tempC := sess.pred.Predict(sess.localT(nowS))
	sess.mu.Unlock()
	st.Live++
	*pred = Prediction{
		HostID:       id,
		TempC:        tempC,
		UncertaintyC: e.cfg.UncertaintyBaseC + e.cfg.UncertaintyPerSC*staleness,
		StalenessS:   staleness,
		Stale:        stale,
	}
	return true, false
}

// adopt builds a session from p and registers it under id, replacing (and
// retiring) one a concurrent push created since the round looked: the
// round's anchor comes from the authoritative batch model. It returns nil
// when p does not describe a valid curve.
func (e *Engine) adopt(id string, p SessionParams) *session {
	ns := new(session)
	if e.anchor(ns, p) != nil {
		return nil
	}
	sh := e.shardFor(id)
	sh.mu.Lock()
	if old, had := sh.sessions[id]; had {
		old.removed.Store(true)
	} else {
		e.count.Add(1)
	}
	sh.sessions[id] = ns
	sh.mu.Unlock()
	return ns
}

// forget evicts a host dark beyond EvictAfterS: its session (if any) and
// its slot's reading.
func (e *Engine) forget(id string, s *Slot, st *RoundStats) {
	if e.Delete(id) {
		st.Evicted++
	}
	st.Forgotten++
	s.Present, s.Handle = false, Handle{}
}

// RoundSlots executes one control round over a host population kept in
// slots: for every slot with a reading, (re-)anchor the session against the
// slot's batch-predicted ψ_stable, calibrate on fresh telemetry, and append
// a Δ_gap-ahead prediction to dst. Hosts whose telemetry is older than
// StaleAfterS are degraded (prediction marked stale, no calibration); older
// than EvictAfterS, their session is evicted and their slot's reading
// dropped. ids[i] names slots[i].
//
// dst is appended to and returned (pass dst[:0] to reuse a buffer); beyond
// first-sight session creation, RoundSlots does not allocate. Slots without
// a reading are skipped — never observed means no session and no
// prediction.
//
// With RoundWorkers > 1 and a population of at least 1024 hosts, the
// per-host pass is sharded across a bounded worker pool: workers touch
// disjoint slots, evictions are deferred to a serial sweep, and dst is
// filled in slot order afterwards — so results (predictions, their order,
// and the round stats) are identical to the serial pass. A round must not
// overlap another round (either front-end) on the same engine; it is safe
// against concurrent Observe/Predict/Create/Delete traffic.
func (e *Engine) RoundSlots(dst []Prediction, nowS float64, ids []string, slots []Slot) ([]Prediction, RoundStats) {
	workers := e.cfg.RoundWorkers
	if len(slots) < roundParallelMinHosts {
		workers = 1
	}
	// Keep every worker's chunk large enough to amortize its goroutine.
	if maxW := (len(slots) + 255) / 256; workers > maxW {
		workers = maxW
	}
	if workers > 1 {
		return e.roundSharded(workers, dst, nowS, ids, slots)
	}
	var st RoundStats
	for i := range slots {
		s := &slots[i]
		if !s.Present {
			continue
		}
		var pred Prediction
		ok, evict := e.roundHost(nowS, ids[i], s, &st, &pred)
		if evict {
			e.forget(ids[i], s, &st)
		} else if ok {
			dst = append(dst, pred)
		}
	}
	return dst, st
}

// Round is RoundSlots for callers that keep readings and anchors in maps:
// every id in order that has a reading in latest is a host of the round,
// anchored by anchors[id] when present; a host forgotten for dark telemetry
// is removed from latest. Hosts, results and stats are exactly RoundSlots'
// — the maps are staged into engine-owned slots (with empty handles, so
// every session resolves by key) and run through the same body.
func (e *Engine) Round(dst []Prediction, nowS float64, order []string, latest map[string]telemetry.Reading, anchors map[string]float64) ([]Prediction, RoundStats) {
	if cap(e.keyed) < len(order) {
		e.keyed = make([]Slot, len(order))
	}
	slots := e.keyed[:len(order)]
	for i, id := range order {
		s := Slot{Anchor: math.NaN()}
		if s.Reading, s.Present = latest[id]; s.Present {
			if a, ok := anchors[id]; ok {
				s.Anchor = a
			}
		}
		slots[i] = s
	}
	dst, st := e.RoundSlots(dst, nowS, order, slots)
	if st.Forgotten > 0 {
		for i, id := range order {
			if !slots[i].Present {
				delete(latest, id)
			}
		}
	}
	return dst, st
}

// roundSlot is one host's result cell in the sharded round.
type roundSlot struct {
	pred      Prediction
	ok, evict bool
}

// roundSharded is the parallel round body: chunked slot ranges into
// per-index scratch, stats merged in chunk order, evictions and the
// in-order dst fill applied serially.
func (e *Engine) roundSharded(workers int, dst []Prediction, nowS float64, ids []string, slots []Slot) ([]Prediction, RoundStats) {
	n := len(slots)
	if cap(e.scratch) < n {
		e.scratch = make([]roundSlot, n)
	}
	scratch := e.scratch[:n]
	stats := make([]RoundStats, workers)
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := min(lo+chunk, n)
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			st := &stats[w]
			for i := lo; i < hi; i++ {
				res := &scratch[i]
				if res.ok, res.evict = false, false; slots[i].Present {
					res.ok, res.evict = e.roundHost(nowS, ids[i], &slots[i], st, &res.pred)
				}
			}
		}(w, lo, hi)
	}
	wg.Wait()
	var st RoundStats
	for i := range stats {
		st.Live += stats[i].Live
		st.AnchorFailures += stats[i].AnchorFailures
		st.Reanchored += stats[i].Reanchored
		if stats[i].MaxStalenessS > st.MaxStalenessS {
			st.MaxStalenessS = stats[i].MaxStalenessS
		}
	}
	for i := range scratch {
		if scratch[i].evict {
			e.forget(ids[i], &slots[i], &st)
		} else if scratch[i].ok {
			dst = append(dst, scratch[i].pred)
		}
	}
	return dst, st
}
