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
// The engine owns the host table, the one id index of its hosts: the ids, a
// map from id to slot, and the slots. A slot carries the host's reading,
// ψ_stable anchor and re-anchor mark going into a round, the prediction
// coming out, and the host's session. Only a round makes or unmakes a
// session: at first sight, on a marked slot (Slot.Reanchor: the deployment
// changed), and on eviction. The table's driver — SlotOf, Keep, Truncate,
// the slot fields, RoundSlots — serializes its own calls (the fleet holds
// its round lock for them).
//
// The round gate (a sync.RWMutex) holds the table's shape and its sessions
// still for everyone else: shape changes and a round's pass hold its write
// side; a push, a Stable read and a Snapshot hold its read side, find the
// slot through the index and take the session's mutex. So pushes apply in
// parallel with each other and wait out a round's pass, and the round
// takes no session lock.
//
// A round is one body (roundHost) over the slots, in shard.Run chunks (one
// inline chunk below shard.MinHosts hosts or with one worker); a host
// touches only its own slot, so any chunking gives the serial round. Round
// stages maps of readings and anchors into the table by key, for callers
// without a table of their own. Beyond a session's first allocation a round
// allocates nothing: a re-anchor, by drift or by mark, resets the session
// in place on the shape validated once at New.
//
// A round evaluates Eq. (3) twice per host — at the reading, to calibrate,
// and Δ_gap ahead, to predict — through a core.CurveMemo the engine owns,
// one per chunk. The memo keys the warm-up fraction
// ln(1+t/δ)/ln(1+t_break/δ) on the bits of the curve-local time t and checks
// the whole key, so a hit is the float the computation gives. Rounds driven by a source hit it almost always: the
// readings of a round share one timestamp (trace rows, scrapes, simulator
// samples) and the sessions a round re-anchored share their anchor instant.
// The streaming path (per-host timestamps) evaluates directly.
package engine

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"sync"

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
	// identical results (a host's work touches only its own slot).
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

// Engine is the host table plus the round executor. Create with New. The
// readers (Stable, Len, ObserveBatch, PredictFresh, Snapshot) are safe for
// concurrent use with everything; the table's driver serializes its calls.
type Engine struct {
	cfg Config
	// gate is the round gate (see the package comment); its write side also
	// owns the round working set below.
	gate sync.RWMutex
	// The host table: ids[i] names slots[i], and index is its inverse.
	ids   []string
	index map[string]int32
	slots []Slot
	// shape is the curve shape and calibration config of every session the
	// engine anchors, validated once: re-anchoring checks only the anchors.
	shape core.Shape
	// chunks is the round's per-chunk working set (memo, stats), kept
	// across rounds: at most RoundWorkers. The round's clock and chunk size
	// are parked in now and size for the body, which is roundChunk bound
	// once in run, so a serial round costs no closure.
	chunks []roundChunk
	run    func(lo, hi int) error
	now    float64
	size   int
}

// roundChunk is one chunk's share of a round: the memo its hosts evaluate
// through and its stats.
type roundChunk struct {
	memo *core.CurveMemo
	st   RoundStats
}

// New builds an engine with an empty host table.
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
	e := &Engine{cfg: cfg, shape: shape, index: make(map[string]int32)}
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

// session returns id's session, nil when id has no slot or its slot no
// session. The caller holds the gate.
func (e *Engine) session(id string) *session {
	if i, ok := e.index[id]; ok {
		return e.slots[i].sess
	}
	return nil
}

// slotOf returns id's slot, appending one at the tail when id has none; the
// caller holds the gate's write side.
func (e *Engine) slotOf(id string) int32 {
	if i, ok := e.index[id]; ok {
		return i
	}
	i := int32(len(e.ids))
	e.index[id] = i
	e.ids = append(e.ids, id)
	e.slots = append(e.slots, Slot{})
	return i
}

// SlotOf returns id's slot, appending an empty one at the tail (under the
// gate's write side) when id has none. For the table's driver.
func (e *Engine) SlotOf(id string) int32 {
	if i, ok := e.index[id]; ok {
		return i
	}
	e.gate.Lock()
	defer e.gate.Unlock()
	return e.slotOf(id)
}

// IDs returns the table's ids, read-only and valid until the next shape
// change. For the table's driver.
func (e *Engine) IDs() []string { return e.ids }

// Slots returns the table's slots, parallel to IDs and valid until the next
// shape change; the driver writes their exported fields. For the table's
// driver.
func (e *Engine) Slots() []Slot { return e.slots }

// Keep rebuilds the table, in new storage, from the slots at the distinct
// indexes keep lists, in that order; every other slot leaves the table with
// its session. For the table's driver.
func (e *Engine) Keep(keep []int32) {
	ids := make([]string, len(keep))
	slots := make([]Slot, len(keep))
	for j, i := range keep {
		ids[j], slots[j] = e.ids[i], e.slots[i]
	}
	e.gate.Lock()
	defer e.gate.Unlock()
	e.ids, e.slots = ids, slots
	clear(e.index)
	for j, id := range ids {
		e.index[id] = int32(j)
	}
}

// Truncate cuts the table back to its first n slots, dropping the sessions
// past them. For the table's driver.
func (e *Engine) Truncate(n int) {
	e.gate.Lock()
	defer e.gate.Unlock()
	for _, id := range e.ids[n:] {
		delete(e.index, id)
	}
	clear(e.ids[n:])
	clear(e.slots[n:])
	e.ids, e.slots = e.ids[:n], e.slots[:n]
}

// Stable returns the ψ_stable a session is currently anchored to.
func (e *Engine) Stable(id string) (float64, error) {
	e.gate.RLock()
	defer e.gate.RUnlock()
	s := e.session(id)
	if s == nil {
		return 0, ErrNoSession
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stable, nil
}

// Len reports the number of live sessions.
func (e *Engine) Len() (n int) {
	e.gate.RLock()
	defer e.gate.RUnlock()
	for i := range e.slots {
		if e.slots[i].sess != nil {
			n++
		}
	}
	return n
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
	// Reanchored counts sessions anchored this round (first sight, a marked
	// slot, or anchor drift beyond ReanchorEpsC).
	Reanchored int
	// Forgotten counts hosts whose reading was dropped because their
	// telemetry exceeded EvictAfterS; Evicted counts those of them that had
	// a session to drop.
	Forgotten, Evicted int
	// MaxStalenessS is the oldest telemetry age seen this round.
	MaxStalenessS float64
}

// Slot is one host's row of the table: what the caller knows about the host
// going into a round, what the round predicted for it, and its session.
type Slot struct {
	// Reading is the host's newest telemetry; Present says there is one.
	// A round clears Present when it forgets a host dark beyond
	// EvictAfterS.
	Reading telemetry.Reading
	Present bool
	// Reanchor marks the host's deployment as changed. The next round
	// consumes it and treats the host as seen first: the session re-anchors
	// in place, bit-identical to a new one, or is dropped.
	Reanchor bool
	// Anchor is this round's batch-predicted ψ_stable for the host, NaN for
	// none (an unusable anchor and no anchor at all are the same thing to a
	// round: the host keeps its session if it has one).
	Anchor float64
	// Pred is the host's prediction from the latest round, meaningful only
	// where Predicted is set; every round writes Predicted for every slot.
	Pred      Prediction
	Predicted bool
	// sess is the host's session, nil for none; written under the gate's
	// write side only. The two bools above share a word, so a slot is 128
	// bytes: two cache lines.
	sess *session
}

// roundHost runs slot i's share of the round parked on the engine —
// staleness accounting, (re-)anchoring, calibration, Δ_gap prediction into
// the slot — evaluating the curve through c's memo. The caller holds the
// gate's write side, so roundHost takes no session lock; calls on distinct
// slots with distinct chunks may run concurrently.
func (e *Engine) roundHost(i int, c *roundChunk) {
	s := &e.slots[i]
	s.Predicted = false
	sess := s.sess
	if s.Reanchor {
		// The deployment changed: the session no longer describes the
		// host, which is seen first again below; its memory is reused.
		s.sess, s.Reanchor = nil, false
	}
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
		if s.sess != nil {
			st.Evicted++
		}
		st.Forgotten++
		s.Present, s.sess = false, nil
		return
	}
	stale := staleness > staleAfterS

	anchored := !math.IsNaN(s.Anchor)
	switch {
	case s.sess != nil:
		// Re-anchor in place when the deployment's predicted ψ_stable moved:
		// the old curve no longer describes this host. On failure (a
		// degenerate reading) the session keeps serving its old curve and
		// nothing counts.
		if anchored && math.Abs(s.Anchor-sess.stable) > ReanchorEpsC && e.anchor(sess, r.TempC, s.Anchor, r.AtS) == nil {
			st.Reanchored++
		}
	case anchored:
		// First sight: the one allocation a session costs, unless a marked
		// slot hands its old session's memory over.
		if sess == nil {
			sess = new(session)
		}
		if e.anchor(sess, r.TempC, s.Anchor, r.AtS) == nil {
			s.sess = sess
			st.Reanchored++
		}
	}
	sess = s.sess
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

// RoundSlots executes one control round over the table: for every slot with
// a reading, (re-)anchor the session against the slot's batch-predicted
// ψ_stable, calibrate on fresh telemetry, and write a Δ_gap-ahead
// prediction into the slot (Pred, Predicted). Hosts whose telemetry is older
// than staleAfterS are degraded (prediction marked stale, no calibration);
// older than EvictAfterS, their session is dropped and their reading
// forgotten. A slot without a reading or a session has Predicted cleared.
// Every re-anchor mark is consumed. For the table's driver.
//
// With RoundWorkers > 1 and at least shard.MinHosts hosts, the pass runs in
// chunks of at least 256 hosts across a bounded worker pool. The round
// holds the gate's write side, so a push arriving mid-pass applies after.
func (e *Engine) RoundSlots(nowS float64) RoundStats {
	e.gate.Lock()
	defer e.gate.Unlock()
	return e.pass(nowS)
}

// pass is the round behind RoundSlots and Round, under the gate's write
// side.
func (e *Engine) pass(nowS float64) RoundStats {
	const minPerChunk = 256
	n, workers := len(e.slots), 1
	if n >= shard.MinHosts {
		workers = e.cfg.RoundWorkers
	}
	count, size := shard.Chunks(n, workers, minPerChunk)
	for len(e.chunks) < count {
		e.chunks = append(e.chunks, roundChunk{memo: core.NewCurveMemo(&e.shape)})
	}
	chunks := e.chunks[:count]
	for k := range chunks {
		chunks[k].st = RoundStats{}
	}
	e.now, e.size = nowS, size
	_ = shard.Run(n, workers, minPerChunk, e.run) // the body cannot fail

	var st RoundStats
	for k := range chunks {
		c := &chunks[k].st
		st.Live += c.Live
		st.AnchorFailures += c.AnchorFailures
		st.Reanchored += c.Reanchored
		st.Forgotten += c.Forgotten
		st.Evicted += c.Evicted
		st.MaxStalenessS = max(st.MaxStalenessS, c.MaxStalenessS)
	}
	return st
}

// Round is RoundSlots for callers that keep readings and anchors in maps
// instead of driving the table: every id in order (no two alike) that has a
// reading in latest is a host of the round, anchored by anchors[id] when
// present, and its prediction is appended to dst in order; a host forgotten
// for dark telemetry is deleted from latest. The maps are staged into the
// table by key, and every other slot sits the round out with its session.
func (e *Engine) Round(dst []Prediction, nowS float64, order []string, latest map[string]telemetry.Reading, anchors map[string]float64) ([]Prediction, RoundStats) {
	e.gate.Lock()
	defer e.gate.Unlock()
	for i := range e.slots {
		e.slots[i].Present = false
	}
	for _, id := range order {
		i := e.slotOf(id)
		s := &e.slots[i]
		s.Anchor = math.NaN()
		if s.Reading, s.Present = latest[id]; s.Present {
			if a, ok := anchors[id]; ok {
				s.Anchor = a
			}
		}
	}
	st := e.pass(nowS)
	for _, id := range order {
		if s := &e.slots[e.index[id]]; s.Predicted {
			dst = append(dst, s.Pred)
		} else if st.Forgotten > 0 && !s.Present {
			delete(latest, id)
		}
	}
	return dst, st
}
