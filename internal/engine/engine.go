// Package engine is the fleet's session pass: one implementation of the
// paper's online lifecycle per host — a session anchored at (φ(t₀),
// ψ_stable) when the host is first seen, φ(t) observed, calibration every
// Δ_update (Eqs. 4–6), a re-anchor when the batch ψ_stable prediction moves
// (the deployment changed), Δ_gap-ahead predictions (Eq. 8), uncertainty
// that widens as telemetry goes stale, and eviction of hosts whose
// telemetry has been dark for too long. Every session is on the one curve
// shape New validates. The prediction service's client-driven sessions are
// not here: internal/predictserver keeps its own store.
//
// The engine is built for fleet-scale concurrency and round throughput.
// Sessions live in a sharded map (per-shard RWMutex over the id→session
// map). A round is a pass over the whole population: it holds the engine's
// round gate, one sync.RWMutex, on its write side for the pass and takes no
// session lock. Every other call that touches a session's predictor — a
// push, a Stable read, a Snapshot — holds the read side and the session's
// mutex, so pushes apply in parallel with each other and wait out a round's
// pass instead of interleaving with it host by host. Delete and Restore
// take no gate: they touch only the shard maps and a session's atomic
// removed flag.
//
// A round has two front-ends over one per-host body (roundHost). RoundSlots
// is the slot-indexed one: the caller keeps each host's reading, anchor and
// a cached session Handle in a []Slot parallel to its id list, so a warm
// round hashes no string and takes no shard lock. Round is the keyed one —
// maps of readings and anchors — for callers without a host table; it stages
// the maps into engine-owned slots and runs the same body. Both append into
// a caller-owned buffer and allocate only when a session is first created: a
// re-anchor resets the existing session in place on the shape validated
// once at New, checking only φ(0) and ψ_stable.
//
// A round evaluates Eq. (3) twice per host — at the reading, to calibrate,
// and Δ_gap ahead, to predict — through a core.CurveMemo the engine owns
// (one for the serial round, one per chunk of the sharded one). The memo
// keys the warm-up fraction ln(1+t/δ)/ln(1+t_break/δ) on the bits of the
// curve-local time t and checks the whole key, so a hit is the float the
// computation gives. Rounds driven by a source hit it almost always: the
// readings of a round share one timestamp (trace rows, scrapes, simulator
// samples) and the sessions a round re-anchored share their anchor instant.
// The streaming path (per-host timestamps) evaluates directly.
//
// A Handle is served only while its session is still the one registered
// under the id. Every way out of the session map (Delete, eviction, Restore,
// a first-sight create that replaces a racing one) marks the session removed
// under the shard lock, and an empty or removed Handle falls back to the
// keyed lookup — so a session deleted since is never served stale and one
// created since (by the streaming path, say) is never missed.
package engine

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"vmtherm/internal/core"
	"vmtherm/internal/shard"
	"vmtherm/internal/telemetry"
)

// The session policy every engine runs around core's calibration rate and
// curve shape: when a host goes stale, when it is forgotten, when its
// session re-anchors, and how wide its prediction's uncertainty is.
const (
	// staleAfterS is how old a host's telemetry may get before the host is
	// degraded: its prediction is marked stale (callers exclude it from
	// hotspot maps) and calibration stops until fresh telemetry arrives.
	staleAfterS = 45.0
	// EvictAfterS is how old a host's telemetry may get before its session
	// is evicted entirely (and its last reading forgotten): a host dark this
	// long is gone, not merely degraded. The prediction service forgets a
	// session left unused this long by the same horizon.
	EvictAfterS = 900.0
	// ReanchorEpsC re-anchors a session when its predicted ψ_stable moves by
	// more than this (the deployment changed underneath it).
	ReanchorEpsC = 1.0
	// uncertaintyBaseC and uncertaintyPerSC shape per-prediction
	// uncertainty: base + perS · staleness.
	uncertaintyBaseC = 0.5
	uncertaintyPerSC = 0.05
)

// Config parameterizes the session lifecycle. Zero values take defaults via
// withDefaults; see DefaultConfig for the reference shape (the paper's
// running-example parameters).
type Config struct {
	// UpdateEveryS is Δ_update, the calibration interval.
	UpdateEveryS float64
	// GapS is Δ_gap, the prediction horizon.
	GapS float64
	// RoundWorkers bounds the worker pool Round shards its per-host pass
	// across at fleet scale (>= shard.MinHosts hosts). Default 1 keeps
	// rounds serial and unconditionally allocation-free; any value produces
	// identical results (per-host work is independent, evictions and output
	// order are serialized).
	RoundWorkers int
}

// DefaultConfig uses the paper's dynamic intervals (Δ_update=15 s,
// Δ_gap=60 s).
func DefaultConfig() Config {
	return Config{UpdateEveryS: 15, GapS: 60}
}

// withDefaults fills zero-valued fields from DefaultConfig.
func (c Config) withDefaults() Config {
	d := DefaultConfig()
	c.UpdateEveryS, c.GapS = cmp.Or(c.UpdateEveryS, d.UpdateEveryS), cmp.Or(c.GapS, d.GapS)
	return c
}

// Validate checks the configuration.
func (c Config) Validate() error {
	// Written as the conditions that must hold, so NaN fails them; no
	// interval gives an infinity a meaning either.
	if !(c.UpdateEveryS > 0 && c.UpdateEveryS <= math.MaxFloat64) || !(c.GapS > 0 && c.GapS <= math.MaxFloat64) {
		return fmt.Errorf("engine: intervals must be > 0 and finite (update %v, gap %v)", c.UpdateEveryS, c.GapS)
	}
	if c.RoundWorkers < 0 {
		return fmt.Errorf("engine: round workers %d < 0", c.RoundWorkers)
	}
	return nil
}

// ErrNoSession is returned for operations on an unknown session id.
var ErrNoSession = errors.New("engine: no such session")

// session is one host's dynamic prediction state: an Eq. (3) curve anchored
// at (anchorAt, φ(anchorAt)) with the ψ_stable the batch model last
// predicted for the host's deployment, the online calibrator (both inside
// the by-value predictor, so a session is one allocation and re-anchors in
// place), and the mutex that serializes the (not concurrency-safe)
// predictor among the round gate's readers.
type session struct {
	mu       sync.Mutex
	pred     core.DynamicPredictor
	stable   float64
	anchorAt float64
	// lastAtS is the engine-time instant of the newest telemetry observed
	// into this session (the anchor instant until the first observe). The
	// streaming path reads it to compute staleness without a latest-reading
	// map; guarded like the predictor.
	lastAtS float64
	// removed is set, under the shard lock, the moment the session leaves
	// the session map: the validity rule of every Handle that cached it.
	removed atomic.Bool
}

// localT converts engine time to session-local curve time.
func (s *session) localT(t float64) float64 { return t - s.anchorAt }

// feed applies one measurement through memo m (nil: none); the caller holds
// mu under the gate's read side, or the gate's write side.
func (s *session) feed(t, tempC float64, m *core.CurveMemo) {
	s.pred.Observe(s.localT(t), tempC, m)
	if t > s.lastAtS {
		s.lastAtS = t
	}
}

// shardCount is the stripe count of the session map, a power of two so the
// hash reduces with a mask.
const shardCount = 32

type stripe struct {
	mu       sync.RWMutex
	sessions map[string]*session
}

// Engine is the sharded session store plus the round executor. Create with
// New. All methods are safe for concurrent use; rounds (either front-end)
// serialize on the round gate.
type Engine struct {
	cfg Config
	// gate is the round gate (see the package comment); its write side also
	// owns the memos and the round scratch below.
	gate   sync.RWMutex
	shards [shardCount]stripe
	count  atomic.Int64
	// shape is the curve shape and calibration config of every session the
	// engine anchors, validated once: re-anchoring checks only the anchors.
	shape core.Shape
	// memos memoise the shape's warm-up fraction for the round: the first
	// serves the serial round, and the sharded round grows one per chunk,
	// beside its chunks' stats; scratch holds the sharded round's per-host
	// results, keyed the slots the keyed Round stages its maps into. All
	// are reused across rounds.
	memos   []*core.CurveMemo
	stats   []RoundStats
	scratch []roundSlot
	keyed   []Slot
}

// New builds an engine.
func New(cfg Config) (*Engine, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	shape, err := core.NewShape(core.DefaultTBreakS, core.DefaultCurveDelta,
		core.DynamicConfig{Lambda: core.DefaultLambda, UpdateEveryS: cfg.UpdateEveryS, GapS: cfg.GapS})
	if err != nil {
		return nil, err
	}
	e := &Engine{cfg: cfg, shape: shape}
	e.memos = []*core.CurveMemo{core.NewCurveMemo(&e.shape)}
	for i := range e.shards {
		e.shards[i].sessions = make(map[string]*session)
	}
	return e, nil
}

// Config returns the resolved configuration.
func (e *Engine) Config() Config { return e.cfg }

// shardFor hashes a session id onto its stripe (FNV-1a).
func (e *Engine) shardFor(id string) *stripe {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	var h uint64 = offset64
	for i := 0; i < len(id); i++ {
		h ^= uint64(id[i])
		h *= prime64
	}
	return &e.shards[h&(shardCount-1)]
}

// get looks a session up by id.
func (e *Engine) get(id string) (*session, bool) {
	sh := e.shardFor(id)
	sh.mu.RLock()
	s, ok := sh.sessions[id]
	sh.mu.RUnlock()
	return s, ok
}

// anchor (re)builds s at (φ(atS), ψ_stable) on the engine's shape:
// afterwards s is bit-identical to a freshly created session (γ = 0,
// unseeded, last telemetry at the anchor instant). Only the anchors are
// validated; on error s is untouched. The caller owns s or holds the gate's
// write side.
func (e *Engine) anchor(s *session, phi0, stableC, atS float64) error {
	if err := s.pred.Anchor(phi0, stableC, &e.shape); err != nil {
		return err
	}
	s.stable, s.anchorAt, s.lastAtS = stableC, atS, atS
	return nil
}

// Stable returns the ψ_stable a session is currently anchored to.
func (e *Engine) Stable(id string) (float64, error) {
	s, ok := e.get(id)
	if !ok {
		return 0, ErrNoSession
	}
	e.gate.RLock()
	defer e.gate.RUnlock()
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

// roundHost runs one host's share of a round — staleness accounting,
// (re-)anchoring, calibration, Δ_gap prediction — into pred, evaluating the
// curve through memo. It reports whether a prediction was produced and
// whether the host must be forgotten (the eviction itself, which mutates
// shared state, is the caller's — serial — responsibility). The caller
// holds the gate's write side, so roundHost takes no session lock; calls on
// distinct hosts with distinct memos may run concurrently: the slot is the
// caller's own, and every counter lands in the caller-owned st.
func (e *Engine) roundHost(nowS float64, id string, s *Slot, st *RoundStats, pred *Prediction, memo *core.CurveMemo) (ok, evict bool) {
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
	if staleness > EvictAfterS {
		// Dark beyond the eviction horizon: the host is gone, not merely
		// degraded. Forget the session and the fossil reading so the
		// population shrinks instead of accumulating ghosts.
		return false, true
	}
	stale := staleness > staleAfterS

	anchored := !math.IsNaN(s.Anchor)
	sess := e.resolve(&s.Handle, id)
	switch {
	case sess != nil:
		// Re-anchor in place when the deployment's predicted ψ_stable moved:
		// the old curve no longer describes this host. On failure (a
		// degenerate reading) the session keeps serving its old curve and
		// nothing counts.
		if anchored && math.Abs(s.Anchor-sess.stable) > ReanchorEpsC && e.anchor(sess, r.TempC, s.Anchor, r.AtS) == nil {
			st.Reanchored++
		}
	case anchored:
		// First sight: the one allocation a session ever costs.
		if sess = e.adopt(id, r.TempC, s.Anchor, r.AtS); sess != nil {
			s.Handle.sess = sess
			st.Reanchored++
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
		sess.feed(r.AtS, r.TempC, memo)
	}
	tempC := sess.pred.Predict(sess.localT(nowS), memo)
	st.Live++
	*pred = Prediction{
		HostID:       id,
		TempC:        tempC,
		UncertaintyC: uncertaintyBaseC + uncertaintyPerSC*staleness,
		StalenessS:   staleness,
		Stale:        stale,
	}
	return true, false
}

// adopt builds a session anchored at (φ(atS), ψ_stable) and registers it
// under id, replacing (and retiring) one a concurrent push created since the
// round looked: the round's anchor comes from the authoritative batch model.
// It returns nil when the anchors do not describe a valid curve.
func (e *Engine) adopt(id string, phi0, stableC, atS float64) *session {
	ns := new(session)
	if e.anchor(ns, phi0, stableC, atS) != nil {
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
// staleAfterS are degraded (prediction marked stale, no calibration); older
// than EvictAfterS, their session is evicted and their slot's reading
// dropped. ids[i] names slots[i], and no two ids are the same.
//
// dst is appended to and returned (pass dst[:0] to reuse a buffer); beyond
// first-sight session creation, RoundSlots does not allocate. Slots without
// a reading are skipped — never observed means no session and no
// prediction.
//
// With RoundWorkers > 1 and a population of at least shard.MinHosts, the
// per-host pass is sharded across a bounded worker pool: workers touch
// disjoint slots, evictions are deferred to a serial sweep, and dst is
// filled in slot order afterwards — so results (predictions, their order,
// and the round stats) are identical to the serial pass. The round holds
// the gate's write side for its pass, so rounds serialize and a push
// arriving mid-pass applies after it.
func (e *Engine) RoundSlots(dst []Prediction, nowS float64, ids []string, slots []Slot) ([]Prediction, RoundStats) {
	e.gate.Lock()
	defer e.gate.Unlock()
	return e.pass(dst, nowS, ids, slots)
}

// pass is the round body behind both front-ends, under the gate's write
// side: serial, or sharded across the worker pool at fleet scale.
func (e *Engine) pass(dst []Prediction, nowS float64, ids []string, slots []Slot) ([]Prediction, RoundStats) {
	if e.cfg.RoundWorkers > 1 && len(slots) >= shard.MinHosts {
		return e.roundSharded(dst, nowS, ids, slots)
	}
	var st RoundStats
	memo := e.memos[0]
	for i := range slots {
		s := &slots[i]
		if !s.Present {
			continue
		}
		// The prediction is written in place, into a cell kept only if ok.
		n := len(dst)
		dst = slices.Grow(dst, 1)[:n+1]
		ok, evict := e.roundHost(nowS, ids[i], s, &st, &dst[n], memo)
		if evict {
			e.forget(ids[i], s, &st)
		}
		if !ok {
			dst = dst[:n]
		}
	}
	return dst, st
}

// Round is RoundSlots for callers that keep readings and anchors in maps:
// every id in order that has a reading in latest is a host of the round,
// anchored by anchors[id] when present; a host forgotten for dark telemetry
// is removed from latest. Hosts, results and stats are exactly RoundSlots'
// — the maps are staged into engine-owned slots (with empty handles, so
// every session resolves by key) and run through the same body, under the
// same hold of the gate.
func (e *Engine) Round(dst []Prediction, nowS float64, order []string, latest map[string]telemetry.Reading, anchors map[string]float64) ([]Prediction, RoundStats) {
	e.gate.Lock()
	defer e.gate.Unlock()
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
	dst, st := e.pass(dst, nowS, order, slots)
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

// roundSharded is the parallel round body: shard.Run chunks the slot range
// into per-index scratch (at least 256 hosts a chunk, so each amortizes its
// goroutine), each chunk with its own memo and stats (the engine keeps
// them: at most RoundWorkers), stats are merged in chunk order, and
// evictions and the in-order dst fill are applied serially, all under the
// caller's hold on the gate.
func (e *Engine) roundSharded(dst []Prediction, nowS float64, ids []string, slots []Slot) ([]Prediction, RoundStats) {
	const minPerChunk = 256
	n := len(slots)
	if cap(e.scratch) < n {
		e.scratch = make([]roundSlot, n)
	}
	scratch := e.scratch[:n]
	count, size := shard.Chunks(n, e.cfg.RoundWorkers, minPerChunk)
	for len(e.memos) < count {
		e.memos = append(e.memos, core.NewCurveMemo(&e.shape))
	}
	if cap(e.stats) < count {
		e.stats = make([]RoundStats, count)
	}
	stats := e.stats[:count]
	clear(stats)
	_ = shard.Run(n, e.cfg.RoundWorkers, minPerChunk, func(lo, hi int) error {
		st, memo := &stats[lo/size], e.memos[lo/size]
		for i := lo; i < hi; i++ {
			res := &scratch[i]
			if res.ok, res.evict = false, false; slots[i].Present {
				res.ok, res.evict = e.roundHost(nowS, ids[i], &slots[i], st, &res.pred, memo)
			}
		}
		return nil
	})
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
