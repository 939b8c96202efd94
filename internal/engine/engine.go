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
// One lock, the round gate (a sync.RWMutex), guards the id→session map:
// lookups hold its read side, and every insert and delete its write side.
// A round is a pass over the whole population: it holds the write side for
// the pass and takes no session lock. Every other call that touches a
// session's predictor — a push, a Stable read, a Snapshot — holds the read
// side and the session's mutex, so pushes apply in parallel with each other
// and wait out a round's pass instead of interleaving with it host by host;
// a push that creates its host's session does so under the write side. The
// lock order is the caller's round lock, then the gate, then a session's
// mutex.
//
// A round is one body (roundChunk) over the slots: the caller keeps each
// host's reading, anchor and a cached session Handle in a []Slot parallel to
// its id list, so a warm round hashes no string, and the round writes each
// host's prediction back into its own slot. RoundSlots is that round; Round,
// for callers without a host table, stages maps of readings and anchors
// into engine-owned slots, runs the same body and compacts the predictions
// into a list. The body runs in shard.Run chunks — one inline chunk below
// shard.MinHosts hosts or with one worker — and leaves the session map to a
// serial sweep of the chunks' first-sight and eviction events. Beyond
// first-sight session creation a serial round allocates nothing: a
// re-anchor resets the existing session in place on the shape validated
// once at New, checking only φ(0) and ψ_stable.
//
// A round evaluates Eq. (3) twice per host — at the reading, to calibrate,
// and Δ_gap ahead, to predict — through a core.CurveMemo the engine owns,
// one per chunk. The memo keys the warm-up fraction
// ln(1+t/δ)/ln(1+t_break/δ) on the bits of the curve-local time t and checks
// the whole key, so a hit is the float the computation gives. Rounds driven by a source hit it almost always: the
// readings of a round share one timestamp (trace rows, scrapes, simulator
// samples) and the sessions a round re-anchored share their anchor instant.
// The streaming path (per-host timestamps) evaluates directly.
//
// A Handle is served only while its session is still the one registered
// under the id. Every way out of the session map (Delete, eviction,
// Restore) marks the session removed under the gate's write side, and an
// empty or removed Handle falls back to the keyed lookup — so a session
// deleted since is never served stale and one created since (by the
// streaming path, say) is never missed.
package engine

import (
	"cmp"
	"errors"
	"fmt"
	"math"
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
	// removed marks, under the gate's write side, a session gone from the
	// map: the validity rule of every Handle that cached it.
	removed bool
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

// Engine is the session map plus the round executor. Create with New. All
// methods are safe for concurrent use; rounds (RoundSlots or Round) serialize
// on the round gate.
type Engine struct {
	cfg Config
	// gate is the round gate (see the package comment): it guards sessions,
	// and its write side also owns the round working set below.
	gate     sync.RWMutex
	sessions map[string]*session
	// count is len(sessions), readable without the gate: an AnchorLookup
	// calls Len under the write side.
	count atomic.Int64
	// shape is the curve shape and calibration config of every session the
	// engine anchors, validated once: re-anchoring checks only the anchors.
	shape core.Shape
	// chunks is the round's per-chunk working set (memo, stats, events),
	// kept across rounds: at most RoundWorkers. The round's arguments are
	// parked in now, ids, slots and size for the body, which is roundChunk
	// bound once in run, so a serial round costs no closure. keyed holds the
	// slots the keyed Round stages its maps into.
	chunks []roundChunk
	run    func(lo, hi int) error
	now    float64
	ids    []string
	slots  []Slot
	size   int
	keyed  []Slot
}

// roundChunk is one chunk's share of a round: the memo its hosts evaluate
// through, its stats, and the slots whose session map change — a first-sight
// registration or an eviction — the serial sweep applies after the pass.
type roundChunk struct {
	memo         *core.CurveMemo
	st           RoundStats
	fresh, evict []int32
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
	e := &Engine{cfg: cfg, shape: shape, sessions: make(map[string]*session)}
	e.run = e.roundChunk
	return e, nil
}

// Config returns the resolved configuration.
func (e *Engine) Config() Config { return e.cfg }

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

// newSession builds a session anchored at (φ(atS), ψ_stable), or returns nil
// when the anchors do not describe a valid curve. It does not register it.
func (e *Engine) newSession(phi0, stableC, atS float64) *session {
	s := new(session)
	if e.anchor(s, phi0, stableC, atS) != nil {
		return nil
	}
	return s
}

// insert registers s under id, which has no session; the caller holds the
// gate's write side.
func (e *Engine) insert(id string, s *session) {
	e.sessions[id] = s
	e.count.Add(1)
}

// remove takes id's session out of the map, reporting whether it existed;
// the caller holds the gate's write side.
func (e *Engine) remove(id string) bool {
	s, ok := e.sessions[id]
	if ok {
		s.removed = true
		delete(e.sessions, id)
		e.count.Add(-1)
	}
	return ok
}

// Stable returns the ψ_stable a session is currently anchored to.
func (e *Engine) Stable(id string) (float64, error) {
	e.gate.RLock()
	defer e.gate.RUnlock()
	s, ok := e.sessions[id]
	if !ok {
		return 0, ErrNoSession
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stable, nil
}

// Delete removes a session, reporting whether it existed. Fleet callers use
// it to force a re-anchor after a deployment change (placement, migration).
// It takes the gate's write side, so it waits out a round's pass.
func (e *Engine) Delete(id string) bool {
	e.gate.Lock()
	defer e.gate.Unlock()
	return e.remove(id)
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

// Slot is one host's share of a round: what the caller knows about the host
// going in, the engine's cached way back to its session, and what the round
// predicted for it.
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
	// Pred is the host's prediction from the latest round, meaningful only
	// where Predicted is set; every round writes Predicted for every slot.
	Pred      Prediction
	Predicted bool
}

// resolve returns id's session through h, refreshing h by key when it is
// empty or its session has left the map. The caller holds the gate.
func (e *Engine) resolve(h *Handle, id string) *session {
	if s := h.sess; s != nil && !s.removed {
		return s
	}
	h.sess = e.sessions[id]
	return h.sess
}

// HandleCurrent reports whether h obeys the validity rule for id: its
// session is the one registered under id, or it is empty or marked removed
// and therefore resolves by key.
func (e *Engine) HandleCurrent(id string, h Handle) bool {
	e.gate.RLock()
	defer e.gate.RUnlock()
	return h.sess == nil || h.sess.removed || e.sessions[id] == h.sess
}

// roundHost runs slot i's share of the round parked on the engine —
// staleness accounting, (re-)anchoring, calibration, Δ_gap prediction into
// the slot — evaluating the curve through c's memo. The session map is only
// read: a session built this round is held by the slot's Handle and listed
// in c.fresh, a host to forget in c.evict, for the serial sweep. The caller
// holds the gate's write side, so roundHost takes no session lock; calls on
// distinct slots with distinct chunks may run concurrently.
func (e *Engine) roundHost(i int, c *roundChunk) {
	s := &e.slots[i]
	s.Predicted = false
	if !s.Present {
		// Never observed means no session and no prediction.
		return
	}
	nowS, st := e.now, &c.st
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
		c.evict = append(c.evict, int32(i))
		return
	}
	stale := staleness > staleAfterS

	anchored := !math.IsNaN(s.Anchor)
	sess := e.resolve(&s.Handle, e.ids[i])
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
		if sess = e.newSession(r.TempC, s.Anchor, r.AtS); sess != nil {
			s.Handle.sess = sess
			c.fresh = append(c.fresh, int32(i))
			st.Reanchored++
		}
	}
	if sess == nil {
		// No session and no usable anchor to build one from: counted, so
		// the blindness is observable.
		st.AnchorFailures++
		return
	}
	if !stale {
		// Calibration: Eqs. (4)–(6) on the session's Δ_update schedule.
		sess.feed(r.AtS, r.TempC, c.memo)
	}
	st.Live++
	s.Pred = Prediction{
		HostID:       e.ids[i],
		TempC:        sess.pred.Predict(sess.localT(nowS), c.memo),
		UncertaintyC: uncertaintyBaseC + uncertaintyPerSC*staleness,
		StalenessS:   staleness,
		Stale:        stale,
	}
	s.Predicted = true
}

// roundChunk runs the round's hosts [lo, hi) as one chunk.
func (e *Engine) roundChunk(lo, hi int) error {
	c := &e.chunks[lo/e.size]
	for i := lo; i < hi; i++ {
		e.roundHost(i, c)
	}
	return nil
}

// RoundSlots executes one control round over a host population kept in
// slots: for every slot with a reading, (re-)anchor the session against the
// slot's batch-predicted ψ_stable, calibrate on fresh telemetry, and write a
// Δ_gap-ahead prediction into the slot (Pred, Predicted). Hosts whose
// telemetry is older than staleAfterS are degraded (prediction marked stale,
// no calibration); older than EvictAfterS, their session is evicted and
// their slot's reading dropped. A slot without a reading, an evicted one and
// one left without a session (an unusable anchor) have Predicted cleared.
// ids[i] names slots[i], and no two ids are the same.
//
// Beyond first-sight session creation a serial round does not allocate.
// With RoundWorkers > 1 and a population of at least shard.MinHosts, the
// per-host pass runs in chunks across a bounded worker pool (at least 256
// hosts a chunk, so each amortizes its goroutine): chunks touch disjoint
// slots and only read the session map, and the sweep that registers
// first-sight sessions and evicts dark hosts runs serially after the pass,
// chunk by chunk, so every slot and the round stats are the serial round's.
// The round holds the gate's write side for its pass, so rounds serialize
// and a push arriving mid-pass applies after it.
func (e *Engine) RoundSlots(nowS float64, ids []string, slots []Slot) RoundStats {
	e.gate.Lock()
	defer e.gate.Unlock()
	return e.pass(nowS, ids, slots)
}

// pass is the round behind RoundSlots and Round, under the gate's write
// side: the chunks' pass over the slots, then the serial sweep.
func (e *Engine) pass(nowS float64, ids []string, slots []Slot) RoundStats {
	const minPerChunk = 256
	n, workers := len(slots), 1
	if n >= shard.MinHosts {
		workers = e.cfg.RoundWorkers
	}
	count, size := shard.Chunks(n, workers, minPerChunk)
	for len(e.chunks) < count {
		e.chunks = append(e.chunks, roundChunk{memo: core.NewCurveMemo(&e.shape)})
	}
	chunks := e.chunks[:count]
	for k := range chunks {
		c := &chunks[k]
		c.st, c.fresh, c.evict = RoundStats{}, c.fresh[:0], c.evict[:0]
	}
	e.now, e.ids, e.slots, e.size = nowS, ids, slots, size
	_ = shard.Run(n, workers, minPerChunk, e.run) // the body cannot fail
	e.ids, e.slots = nil, nil

	var st RoundStats
	for k := range chunks {
		c := &chunks[k]
		st.Live += c.st.Live
		st.AnchorFailures += c.st.AnchorFailures
		st.Reanchored += c.st.Reanchored
		st.MaxStalenessS = max(st.MaxStalenessS, c.st.MaxStalenessS)
		for _, i := range c.fresh {
			e.insert(ids[i], slots[i].Handle.sess)
		}
		for _, i := range c.evict {
			if e.remove(ids[i]) {
				st.Evicted++
			}
			st.Forgotten++
			slots[i].Present, slots[i].Handle = false, Handle{}
		}
	}
	return st
}

// Round is RoundSlots for callers that keep readings and anchors in maps:
// every id in order that has a reading in latest is a host of the round,
// anchored by anchors[id] when present, and its prediction is appended to
// dst in order (pass dst[:0] to reuse a buffer); a host forgotten for dark
// telemetry is removed from latest. Hosts, results and stats are exactly
// RoundSlots' — the maps are staged into engine-owned slots (with empty
// handles, so every session resolves by key) and run through the same body,
// under the same hold of the gate.
func (e *Engine) Round(dst []Prediction, nowS float64, order []string, latest map[string]telemetry.Reading, anchors map[string]float64) ([]Prediction, RoundStats) {
	e.gate.Lock()
	defer e.gate.Unlock()
	if cap(e.keyed) < len(order) {
		e.keyed = make([]Slot, len(order))
	}
	slots := e.keyed[:len(order)]
	for i, id := range order {
		s := &slots[i]
		s.Anchor, s.Handle = math.NaN(), Handle{}
		if s.Reading, s.Present = latest[id]; s.Present {
			if a, ok := anchors[id]; ok {
				s.Anchor = a
			}
		}
	}
	st := e.pass(nowS, order, slots)
	for i := range slots {
		if slots[i].Predicted {
			dst = append(dst, slots[i].Pred)
		} else if st.Forgotten > 0 && !slots[i].Present {
			delete(latest, order[i])
		}
	}
	return dst, st
}
