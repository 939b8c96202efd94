package fleet

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"vmtherm/internal/anchorcache"
	"vmtherm/internal/engine"
	"vmtherm/internal/substrate"
	"vmtherm/internal/telemetry"
	"vmtherm/internal/workload"
)

// Controller runs the closed loop. Create with New (simulated fleet) or
// NewWithSource (trace replay, live scraping); Submit/Ingest/Hotspots are
// safe to call concurrently with RunRound.
type Controller struct {
	cfg     Config
	predict Predictor

	mu  sync.Mutex       // guards sub, src, eng rounds, the host table, proposals
	sub *substrate.Fleet // the simulated fleet; nil for source-driven controllers
	src telemetry.Source
	eng *engine.Engine
	// The host table (hosttable.go). order is the deterministic host
	// iteration order (the substrate's slot order for simulated fleets,
	// sorted discovery order for source-driven ones) and pos its inverse,
	// id → slot index.
	// slots and seen are parallel to order: slots[i] is host i's share of
	// the engine round — its newest reading (Present when it has one), this
	// round's ψ_stable anchor (NaN for none), the cached session handle, and
	// the prediction the round wrote back — and seen[i] the generation of
	// the round that last wrote the reading (seen[i] == drainGen: already
	// written this round).
	// cursor is slotOf's hint; superseded is admit's count until the drain.
	// orderDirty marks membership changes (an empty slot filled, a host
	// forgotten or discarded) so stable rounds skip the rebuild entirely.
	// members is the snapshot columns' copy of order, nil from a change of
	// the table until the next round publishes one.
	order      []string
	pos        map[string]int32
	slots      []engine.Slot
	seen       []uint64
	drainGen   uint64
	cursor     int
	superseded int64
	orderDirty bool
	members    *membership
	pendingP   []MigrationProposal // proposals awaiting reconciliation
	propTgts   []proposeTarget     // propose's per-round target list (scratch)

	// cache memoizes ψ_stable per quantized anchor key; lastFanout is the
	// previous round's miss-batch size, readable without the round lock for
	// the /metrics exposition.
	cache      *anchorcache.Cache
	lastFanout atomic.Int64

	// Reusable round buffers: the snapshot collects its hot keys (margin
	// and slot index) in hotKeys, in table order, which propose then sorts
	// into the published order; the anchor pass stages cache misses into
	// anchorRows (one entry per distinct key, its key in rowKeys), the
	// slot→row fan-in into anchorRefs, and the batch results land in
	// anchorVals before filling the slots' anchors and the cache.
	hotKeys    []hotKey
	anchorRows []HostRow
	rowKeys    []anchorcache.Key
	anchorRefs []anchorRef
	anchorVals []float64
	missByKey  map[anchorcache.Key]int
	// missRows/missOut are the batch predictMissBatch is scoring;
	// predictChunk is predictMissChunk bound once (like stream.anchor).
	missRows     []HostRow
	missOut      []float64
	predictChunk func(lo, hi int) error
	// Simulated-fleet anchor scratch: the serial cache pass stages the
	// missing slots in missIdx and the sharded fill copies their folds, so
	// the per-round anchor work that walks VM and task state scales with
	// cores instead of serializing. folds is the fold column, one entry per
	// substrate slot (see hostFold), which the placement rows read too.
	missIdx []int
	folds   []slotFold

	// plan is the per-round placement working set (see placePlan); the
	// wave* slices (waveIdle: the rows priced at their inlet, see idle),
	// candDemand (the staged VM's task demands) and the pend index scratch
	// are PlaceBatch's reusable buffers.
	plan       placePlan
	waveRows   []HostRow
	waveIdle   []int
	waveEntry  []int32
	waveVMs    []waveVM
	waveVals   []float64
	candDemand []float64
	pendIdx    []int
	pendNext   []int

	pendMu  sync.Mutex
	pending []workload.VMSpec

	ingest *ingestPipeline
	// tee is the TeeTelemetry observer, nil when detached. It is an atomic
	// pointer because IngestBatch (the HTTP push path) runs concurrently
	// with rounds and with TeeTelemetry swaps.
	tee atomic.Pointer[func(Reading) bool]
	// emit is admitSourceReading, bound once so a round allocates nothing;
	// srcOffered counts the plausible readings it met this round (under mu).
	emit       func(Reading) bool
	srcOffered int

	// snaps owns the epoch-versioned snapshot generations (publication via
	// atomic pointer swap; retired generations recycled in place).
	snaps snapStore

	// stream is the streaming-ingest machinery (nil until liveIndex builds
	// it); hotUpdatedNano is the wall-clock instant the served hotspot set
	// last refreshed, for the staleness gauge.
	stream         atomic.Pointer[streamState]
	hotUpdatedNano atomic.Int64

	// recentErrs is the bounded ring of recent source/ingest failures
	// surfaced in RoundReport.RecentErrors (guarded by mu; nil until the
	// first failure, so clean fleets never pay for it); lastRejected is the
	// previous round's rejection total, for the per-round delta note.
	recentErrs   []string
	lastRejected int64

	round int
}

// recentErrRing bounds the recent-error ring: enough to span a multi-round
// outage in the stats line without turning reports into logs.
const recentErrRing = 8

// noteError records one failure in the recent-error ring (caller holds mu).
func (c *Controller) noteError(msg string) {
	if len(c.recentErrs) >= recentErrRing {
		copy(c.recentErrs, c.recentErrs[1:])
		c.recentErrs = c.recentErrs[:recentErrRing-1]
	}
	c.recentErrs = append(c.recentErrs, msg)
}

// New builds a controller over a freshly assembled simulated fleet.
func New(cfg Config, predict Predictor) (*Controller, error) {
	cfg, hosts, err := cfg.resolve(true)
	if err != nil {
		return nil, err
	}
	sub, err := substrate.New(cfg.Config, cfg.HostShape, cfg.FanCount, cfg.PhysWorkers)
	if err != nil {
		return nil, err
	}
	c, err := newController(cfg, sub, predict, hosts)
	if err != nil {
		return nil, err
	}
	c.sub = sub
	c.folds = make([]slotFold, len(sub.IDs()))
	c.resetTable(sub.IDs())
	return c, nil
}

// NewWithSource builds a controller over an external telemetry source
// (trace replay, Prometheus scraping): no simulated fleet exists, hosts are
// discovered from the readings (bounded by MaxHosts), ψ_stable anchors are
// synthesized from observed utilization through the same batch predictor,
// and placement/migration — which need a substrate to act on — report
// rejections instead of acting.
func NewWithSource(cfg Config, src telemetry.Source, predict Predictor) (*Controller, error) {
	cfg, hosts, err := cfg.resolve(false)
	if err != nil {
		return nil, err
	}
	if src == nil {
		return nil, errors.New("fleet: nil telemetry source")
	}
	return newController(cfg, src, predict, hosts)
}

// newController wires the shared state; callers attach sub/order as needed.
// hostHint is the expected steady-state host population (the fleet shape,
// or the MaxHosts bound for discovered populations): the host table's index
// is pre-sized from it so a cold start does not rehash its way up to the
// full population on the first rounds, and it sizes the ingest pipeline.
func newController(cfg Config, src telemetry.Source, predict Predictor, hostHint int) (*Controller, error) {
	if predict.TaskDemand == nil || predict.Score == nil {
		return nil, errors.New("fleet: nil predictor")
	}
	eng, err := engine.New(cfg.engineConfig())
	if err != nil {
		return nil, err
	}
	c := &Controller{
		cfg:       cfg,
		predict:   predict,
		src:       src,
		eng:       eng,
		pos:       make(map[string]int32, hostHint),
		missByKey: make(map[anchorcache.Key]int),
		ingest:    newIngestPipeline(cfg.ingestCapacity(hostHint)),
	}
	c.predictChunk = c.predictMissChunk
	c.emit = c.admitSourceReading
	c.cache, err = anchorcache.New(anchorcache.Config{
		MaxEntries: cfg.AnchorCacheEntries,
		Quant: anchorcache.Quantizer{
			UtilQuant:     cfg.AnchorQuantUtil,
			MemQuant:      cfg.AnchorQuantMem,
			AmbientQuantC: cfg.AnchorQuantAmbientC,
		},
	})
	if err != nil {
		return nil, err
	}
	return c, nil
}

// Config returns the resolved configuration.
func (c *Controller) Config() Config { return c.cfg }

// Engine exposes the session engine (for observability surfaces).
func (c *Controller) Engine() *engine.Engine { return c.eng }

// Hosts returns every tracked host id in iteration order.
func (c *Controller) Hosts() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return slices.Clone(c.order)
}

// Submit queues a VM request for thermal-aware placement next round. It
// reports false when the admission queue is at its depth bound (or queueing
// is disabled) and the request was refused.
func (c *Controller) Submit(spec workload.VMSpec) bool {
	depth := c.cfg.Admission.MaxQueueDepth
	c.pendMu.Lock()
	defer c.pendMu.Unlock()
	if depth < 0 || len(c.pending) >= depth {
		return false
	}
	c.pending = append(c.pending, spec)
	return true
}

// IngestStats returns the cumulative ingest pipeline counters.
func (c *Controller) IngestStats() (received, dropped, superseded int64) {
	return c.ingest.stats()
}

// IngestRejected returns the cumulative per-reason counts of readings
// refused for implausible temperatures (indexed by telemetry.RejectReason)
// and their total. Safe to call concurrently with everything.
func (c *Controller) IngestRejected() (byReason [telemetry.NumRejectReasons]int64, total int64) {
	byReason = c.ingest.rejectedByReason()
	for _, v := range byReason {
		total += v
	}
	return byReason, total
}

// TeeTelemetry attaches an observer that sees every reading a source emits
// and every reading pushed through IngestBatch, implausible ones included,
// so a replay rejects what the live run rejected. It is the capture path
// behind `vmtherm-fleetd -record`, feeding a telemetry.Recorder whose output
// replays through `-source trace`. The tee sees readings before the source
// budget and the push buffer, so a capture is complete even when either
// drops. Pass nil to detach. The swap itself is safe at
// any time; the tee must be safe for the caller's concurrency (a plain
// Recorder wants the tee attached before rounds start and detached after
// they stop).
func (c *Controller) TeeTelemetry(tee func(Reading) bool) {
	if tee == nil {
		c.tee.Store(nil)
		return
	}
	c.tee.Store(&tee)
}

// AnchorCacheStats reports the anchor cache's cumulative counters and the
// last round's miss-batch fan-out size. Safe to call concurrently with
// RunRound (the /metrics exposition does).
func (c *Controller) AnchorCacheStats() (st anchorcache.Stats, lastFanout int) {
	return c.cache.Stats(), int(c.lastFanout.Load())
}

// AnchorCacheLen reports how many anchors the cache holds — the daemon
// logs it beside a checkpoint restore or write, since over a simulated fleet
// the cache is all a checkpoint carries.
func (c *Controller) AnchorCacheLen() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cache.Len()
}

// InvalidateAnchorCache drops every memoized anchor and bumps the cache
// epoch. Call it whenever the prediction model or the feature configuration
// changes underneath the cached values (e.g. a model hot-swap): the next
// round re-predicts every anchor.
func (c *Controller) InvalidateAnchorCache() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cache.Invalidate()
}

// PlaceAt force-places a VM on a named host, bypassing the thermal policy —
// the deterministic seeding path for tests and demos. Simulated fleets only.
func (c *Controller) PlaceAt(hostID string, spec workload.VMSpec) error {
	return c.WithSubstrate(func(sub *substrate.Fleet) error {
		i, ok := sub.Slot(hostID)
		if !ok {
			return fmt.Errorf("fleet: unknown host %q", hostID)
		}
		return sub.Place(i, spec)
	})
}

// RemoveVM evicts a VM from the simulated fleet — the inverse of PlaceAt,
// used by scenarios to end a scripted load surge. The host's session is
// deleted so the next round re-anchors it against the shrunken
// deployment. Simulated fleets only.
func (c *Controller) RemoveVM(vmID string) error {
	return c.WithSubstrate(func(sub *substrate.Fleet) error {
		i, err := sub.Remove(vmID)
		if err == nil {
			c.eng.Delete(c.order[i])
		}
		return err
	})
}

// WithSubstrate lends the simulated fleet to fn under the round lock — the
// one door to its fault hooks and oracles (internal/scenario scripts
// emergencies through it) — and returns fn's error, or ErrNoSubstrate on a
// source-driven controller. fn must not keep the fleet past its return or
// call back into the controller.
func (c *Controller) WithSubstrate(fn func(*substrate.Fleet) error) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.sub == nil {
		return ErrNoSubstrate
	}
	return fn(c.sub)
}
