package fleet

import (
	"errors"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"

	"vmtherm/internal/anchorcache"
	"vmtherm/internal/engine"
	"vmtherm/internal/telemetry"
	"vmtherm/internal/workload"
)

// Controller runs the closed loop. Create with New (simulated fleet) or
// NewWithSource (trace replay, live scraping); Submit/Ingest/Hotspots are
// safe to call concurrently with RunRound.
type Controller struct {
	cfg     Config
	predict BatchCasePredictor

	mu  sync.Mutex // guards sim, src, eng rounds, the host table, proposals
	sim *fleetSim  // nil for source-driven controllers
	src telemetry.Source
	eng *engine.Engine
	// The host table (hosttable.go). order is the deterministic host
	// iteration order (rack/slot for simulated fleets, sorted discovery
	// order for source-driven ones) and pos its inverse, id → slot index.
	// slots and seen are parallel to order: slots[i] is what the engine
	// round consumes for host i — its newest reading (Present when it has
	// one), this round's ψ_stable anchor (NaN for none) and the cached
	// session handle — and seen[i] the generation of the drain that last
	// wrote the reading (seen[i] == drainGen: already written this drain).
	// orderDirty marks membership changes (an empty slot filled, a host
	// forgotten or discarded) so stable rounds skip the rebuild entirely.
	order      []string
	pos        map[string]int32
	slots      []engine.Slot
	seen       []uint64
	drainGen   uint64
	orderDirty bool
	pendingP   []MigrationProposal // proposals awaiting reconciliation

	// cache memoizes ψ_stable per quantized anchor key (nil when disabled);
	// lastFanout is the previous round's miss-batch size, readable without
	// the round lock for the /metrics exposition.
	cache      *anchorcache.Cache
	lastFanout atomic.Int64

	// Reusable round buffers: the engine round appends into predBuf, the
	// anchor pass stages cache misses into caseBuf (one entry per distinct
	// key), the slot→case fan-in into anchorRefs, and the batch results land
	// in anchorVals before filling the slots' anchors and the cache.
	predBuf    []engine.Prediction
	caseBuf    []workload.Case
	caseKeys   []anchorcache.Key
	anchorRefs []anchorRef
	anchorVals []float64
	missByKey  map[anchorcache.Key]int
	// Source-driven miss cases are carved out of a per-round arena (reset
	// at the top of anchors): obsTasks holds every staged case's tasks,
	// obsVMs its one VM; obsTaskIDs are the per-core task names, built once.
	obsTaskIDs []string
	obsTasks   []workload.TaskSpec
	obsVMs     []workload.VMSpec
	// missCases/missOut are the batch predictMissBatch is evaluating;
	// predictChunk is predictMissChunk bound once (like stream.anchor).
	missCases    []workload.Case
	missOut      []float64
	predictChunk func(lo, hi int) error
	// Simulated-fleet anchor scratch (indexed like sim.byPos/order): the
	// rack-sharded scan fills inlets and deployment-fingerprint keys, the
	// serial cache pass stages misses (host index and case ambient), and
	// the sharded case build fills their staged cases — so the per-round
	// anchor work that walks VM and task state scales with cores instead of
	// serializing.
	simInlets []float64
	simKeys   []anchorcache.Key
	missIdx   []int
	missAmb   []float64

	// plan is the per-round placement working set (see placePlan); the
	// wave* slices and pend index scratch are PlaceBatch's reusable
	// buffers (waveSpecs is the arena the wave's cases keep their VM lists
	// in), and planHot the plan rebuild's hotspot-set scratch.
	plan      placePlan
	planHot   map[string]bool
	waveCases []workload.Case
	waveSpecs []workload.VMSpec
	waveEntry []int32
	waveVMs   []waveVM
	waveVals  []float64
	pendIdx   []int
	pendNext  []int

	pendMu  sync.Mutex
	pending []workload.VMSpec

	ingest  *ingestPipeline
	drained []Reading // the last drain's slice, the pipeline's next buffer; guarded by mu
	// emit is the sink every reading goes through — ingest.push, optionally
	// wrapped by a TeeTelemetry observer. It is an atomic pointer because
	// Ingest (the HTTP push path) runs concurrently with rounds and with
	// TeeTelemetry swaps.
	emit atomic.Pointer[func(Reading) bool]

	// snaps owns the epoch-versioned snapshot generations (publication via
	// atomic pointer swap; retired generations recycled in place).
	snaps snapStore

	// stream is the streaming-ingest machinery (nil unless
	// Config.StreamingIngest); hotUpdatedNano is the wall-clock instant the
	// served hotspot set last refreshed, for the staleness gauge.
	stream         *streamState
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
func New(cfg Config, predict BatchCasePredictor) (*Controller, error) {
	cfg, hosts, err := cfg.resolve(true)
	if err != nil {
		return nil, err
	}
	fs, err := newFleetSim(cfg)
	if err != nil {
		return nil, err
	}
	c, err := newController(cfg, &simSource{fs: fs}, predict, hosts)
	if err != nil {
		return nil, err
	}
	c.sim = fs
	c.resetTable(fs.order)
	return c, nil
}

// NewWithSource builds a controller over an external telemetry source
// (trace replay, Prometheus scraping): no simulated fleet exists, hosts are
// discovered from the readings (bounded by MaxHosts), ψ_stable anchors are
// synthesized from observed utilization through the same batch predictor,
// and placement/migration — which need a substrate to act on — report
// rejections instead of acting.
func NewWithSource(cfg Config, src telemetry.Source, predict BatchCasePredictor) (*Controller, error) {
	cfg, hosts, err := cfg.resolve(false)
	if err != nil {
		return nil, err
	}
	if src == nil {
		return nil, errors.New("fleet: nil telemetry source")
	}
	return newController(cfg, src, predict, hosts)
}

// newController wires the shared state; callers attach sim/order as needed.
// hostHint is the expected steady-state host population (the fleet shape,
// or the MaxHosts bound for discovered populations): the host table's index
// is pre-sized from it so a cold start does not rehash its way up to the
// full population on the first rounds.
func newController(cfg Config, src telemetry.Source, predict BatchCasePredictor, hostHint int) (*Controller, error) {
	if predict == nil {
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
		ingest:    newIngestPipeline(cfg.IngestBuffer),
	}
	for i := 0; i < cfg.HostShape.Cores; i++ {
		c.obsTaskIDs = append(c.obsTaskIDs, "observed-t"+strconv.Itoa(i))
	}
	if cfg.StreamingIngest {
		c.stream = newStreamState(c)
	}
	c.predictChunk = c.predictMissChunk
	push := c.ingest.push
	c.emit.Store(&push)
	if !cfg.AnchorCacheDisabled {
		cache, err := anchorcache.New(anchorcache.Config{
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
		c.cache = cache
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

// Ingest offers an externally produced telemetry reading to the pipeline
// (the path a real monitoring agent would use). It reports false when the
// bounded buffer is full and the reading was dropped. Pushed readings go
// through the same emit sink as source-driven ones, so a TeeTelemetry
// capture (fleetd -record) includes them.
func (c *Controller) Ingest(r Reading) bool { return (*c.emit.Load())(r) }

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

// TeeTelemetry attaches an observer that sees every reading offered to the
// ingest pipeline — source emissions and HTTP pushes alike. It is the
// capture path behind `vmtherm-fleetd -record`, feeding a
// telemetry.Recorder whose output replays through `-source trace`. The tee
// sees readings before the bounded buffer, so a capture is complete even
// when the pipeline drops. Pass nil to detach. The swap itself is safe at
// any time; the tee must be safe for the caller's concurrency (a plain
// Recorder wants the tee attached before rounds start and detached after
// they stop).
func (c *Controller) TeeTelemetry(tee func(Reading) bool) {
	var emit func(Reading) bool
	if tee == nil {
		emit = c.ingest.push
	} else {
		emit = func(r Reading) bool {
			tee(r)
			return c.ingest.push(r)
		}
	}
	c.emit.Store(&emit)
}

// AnchorCacheStats reports the anchor cache's cumulative counters, the last
// round's miss-batch fan-out size, and whether the cache is enabled. Safe
// to call concurrently with RunRound (the /metrics exposition does).
func (c *Controller) AnchorCacheStats() (st anchorcache.Stats, lastFanout int, enabled bool) {
	if c.cache == nil {
		return anchorcache.Stats{}, int(c.lastFanout.Load()), false
	}
	return c.cache.Stats(), int(c.lastFanout.Load()), true
}

// AnchorCacheLen reports how many anchors the cache holds (0 when disabled)
// — the daemons log it beside a checkpoint restore or write, since over a
// simulated fleet the cache is all a checkpoint carries.
func (c *Controller) AnchorCacheLen() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cache == nil {
		return 0
	}
	return c.cache.Len()
}

// InvalidateAnchorCache drops every memoized anchor and bumps the cache
// epoch. Call it whenever the prediction model or the feature configuration
// changes underneath the cached values (e.g. a model hot-swap): the next
// round re-predicts every anchor.
func (c *Controller) InvalidateAnchorCache() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cache != nil {
		c.cache.Invalidate()
	}
}

// PlaceAt force-places a VM on a named host, bypassing the thermal policy —
// the deterministic seeding path for tests and demos. Simulated fleets only.
func (c *Controller) PlaceAt(hostID string, spec workload.VMSpec) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.sim == nil {
		return ErrNoSubstrate
	}
	return c.sim.place(hostID, spec)
}

// Run executes n rounds and returns their reports.
func (c *Controller) Run(n int) ([]RoundReport, error) {
	out := make([]RoundReport, 0, n)
	for i := 0; i < n; i++ {
		rep, err := c.RunRound()
		if err != nil {
			return out, err
		}
		out = append(out, rep)
	}
	return out, nil
}
