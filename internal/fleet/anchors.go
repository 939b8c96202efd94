package fleet

import (
	"fmt"
	"math"

	"vmtherm/internal/anchorcache"
	"vmtherm/internal/dataset"
	"vmtherm/internal/shard"
	"vmtherm/internal/telemetry"
	"vmtherm/internal/vmm"
	"vmtherm/internal/workload"
)

// anchorRef binds one host slot to the miss-batch row its anchor comes from.
type anchorRef struct {
	slot, rowIdx int32
}

// anchors batch-predicts ψ_stable for every tracked host into its slot's
// Anchor (NaN where the host gets none this round). Only quantized-key
// misses are staged (deduplicated per key) and fanned through the batch
// predictor; a fully warm round touches the predictor not at all and
// allocates nothing. It returns the round's cache hit and miss counts,
// which it adds to the cache's counters once, at the end of the lookups.
func (c *Controller) anchors() (hits, misses int, err error) {
	for i := range c.slots {
		c.slots[i].Anchor = math.NaN()
	}
	c.anchorRows = c.anchorRows[:0]
	c.rowKeys = c.rowKeys[:0]
	c.anchorRefs = c.anchorRefs[:0]
	clear(c.missByKey)
	if c.sub != nil {
		c.simAnchorRows(&hits)
	} else {
		c.sourceAnchorRows(&hits)
	}
	misses = len(c.anchorRefs)
	c.cache.Count(hits, misses)
	if len(c.anchorRows) > 0 {
		if cap(c.anchorVals) < len(c.anchorRows) {
			c.anchorVals = make([]float64, len(c.anchorRows))
		}
		vals := c.anchorVals[:len(c.anchorRows)]
		if err := c.predictMissBatch(c.anchorRows, vals); err != nil {
			return 0, 0, fmt.Errorf("fleet: stable anchors: %w", err)
		}
		for i, k := range c.rowKeys {
			// Never memoize a degenerate prediction: a NaN anchor must stay
			// a per-round failure, not a cached one.
			if !math.IsNaN(vals[i]) {
				c.cache.Put(k, vals[i])
			}
		}
		for _, ref := range c.anchorRefs {
			c.slots[ref.slot].Anchor = vals[ref.rowIdx]
		}
	}
	return hits, misses, nil
}

// stageMiss registers a host whose anchor must be predicted this round,
// staging its row into the miss batch. Key-based deduplication lives in
// sourceAnchorRows (the only path where two hosts can share a key —
// simulated fingerprints embed fleet-unique VM ids).
func (c *Controller) stageMiss(slot int, key anchorcache.Key, row HostRow) {
	c.anchorRefs = append(c.anchorRefs, anchorRef{slot: int32(slot), rowIdx: int32(len(c.anchorRows))})
	c.anchorRows = append(c.anchorRows, row)
	c.rowKeys = append(c.rowKeys, key)
}

// predictMissBatch scores the staged rows into out, sharding the batch
// across the configured worker bound when it is large enough to amortize
// the goroutines — cold rounds (first sight of a fleet, mass re-anchor
// after migration waves) scale with cores instead of serializing behind one
// kernel pass. Callers hold c.mu: the batch is parked on the controller for
// predictChunk, so a miss batch costs no closure.
func (c *Controller) predictMissBatch(rows []HostRow, out []float64) error {
	const minShard = 16
	c.missRows, c.missOut = rows, out
	return shard.Run(len(rows), c.cfg.AnchorWorkers, minShard, c.predictChunk)
}

// predictMissChunk is predictMissBatch's share for rows [lo, hi).
func (c *Controller) predictMissChunk(lo, hi int) error {
	return c.predict.Score(c.cfg.HostShape, c.cfg.FanCount, c.missRows[lo:hi], c.missOut[lo:hi])
}

// hostFold is slot i's resident fold: its deployment view folded in case
// order, each task at its CPUFraction (a view carries no profiles). The
// fold column keeps it until the substrate's deployment generation for the
// slot moves. Calls for distinct slots may run concurrently.
func (c *Controller) hostFold(i int) *dataset.Fold {
	m := &c.folds[i]
	if gen := c.sub.Generation(i); m.gen != gen {
		vms := c.sub.Deployment(i)
		m.fold = dataset.Fold{}
		for v := range vms {
			for k := range vms[v].Tasks {
				t := &vms[v].Tasks[k].Task
				m.fold.AddTask(t.CPUFraction, t)
			}
			m.fold.AddVM(vms[v].Config)
		}
		m.gen = gen
	}
	return &m.fold
}

// slotFold is one entry of the fold column: a slot's resident fold and the
// deployment generation it was folded at (0: never).
type slotFold struct {
	gen  uint64
	fold dataset.Fold
}

// idle reports whether slot i's host runs no task with spec placed on it
// (nil: as it stands) — no VM, or only VMs without tasks. That is the one
// rule for pricing a deployment without the model: an idle host settles at
// its inlet, and Eq. (2)'s task features cannot encode a case with no task.
// The anchor pass anchors such a host at its inlet, and a placement wave
// prices a VM that leaves its host idle at the host's inlet.
func (c *Controller) idle(i int, spec *workload.VMSpec) bool {
	return (spec == nil || len(spec.Tasks) == 0) && c.sub.Host(i).Idle()
}

// simAnchorRows resolves every busy host's anchor — from the cache when its
// deployment fingerprint (VM set + per-VM task load + quantized
// util/mem/inlet) is already memoized, else by staging its resident fold
// as a miss row. Idle hosts anchor at their inlet temperature without
// touching cache or model.
//
// The pass is phased so the per-host VM/task walks scale with cores at
// fleet size: a rack-sharded scan derives inlets and fingerprint keys, the
// serial cache pass consumes them and stages the misses in host order (map
// access and hit accounting stay single-threaded), and a sharded pass
// fills the staged rows' folds. Values, staging order and cache state are
// identical to one serial loop.
func (c *Controller) simAnchorRows(hits *int) {
	// The sim path predicts a miss at the host's actual deployment snapshot
	// (task fractions cannot be re-centered), so the cached value can
	// diverge from another bucket member by up to a FULL bucket — unlike the
	// source path, which predicts at the bucket center and is off by at most
	// half. Quartering the load bucket widths caps the sim load error at
	// half the source epsilon, which leaves room for the half-ambient-bucket
	// share so the composed sim error stays within the
	// engine.ReanchorEpsC/2 bound Config.Validate enforces.
	q := c.cache.Quant()
	q.UtilQuant /= 4
	q.MemQuant /= 4
	inlets, keys := c.sub.ScanAnchors(q)
	c.missIdx = c.missIdx[:0]
	for i, inlet := range inlets {
		if c.idle(i, nil) {
			c.slots[i].Anchor = inlet
			continue
		}
		key := keys[i]
		if v, ok := c.cache.Lookup(key); ok {
			c.slots[i].Anchor = v
			*hits++
			continue
		}
		// Predict at the inlet bucket's center so the cached value serves
		// the whole bucket with at most half a bucket of ambient error.
		_, amb := q.Ambient(inlet)
		// Staged in host order without its fold; fillMissFolds adds it.
		c.missIdx = append(c.missIdx, i)
		c.stageMiss(i, key, HostRow{AmbientC: amb})
	}
	c.fillMissFolds()
}

// fillMissFolds copies each staged miss's resident fold into its row
// (anchorRows[mi] belongs to host missIdx[mi]: the sim path is the rows'
// only writer this round), sharded across the physics pool at scale: each
// worker refolds only its own hosts' stale fold-column entries (and their
// views) and writes only its own rows. The ambient is the inlet bucket
// center the cache pass chose.
func (c *Controller) fillMissFolds() {
	if len(c.missIdx) == 0 {
		return
	}
	const minShard = 64
	// The fill cannot fail, so the shard error path is unreachable.
	_ = shard.Run(len(c.missIdx), c.cfg.PhysWorkers, minShard, func(lo, hi int) error {
		for mi := lo; mi < hi; mi++ {
			c.anchorRows[mi].Fold = *c.hostFold(c.missIdx[mi])
		}
		return nil
	})
}

// sourceAnchorRows synthesizes an anchor row per observed host from its
// latest reading: the observed utilization and memory activity become an
// equivalent single-VM deployment on the configured host shape, so real
// (replayed or scraped) telemetry flows through the same trained model as
// simulated fleets — the deployment loop Ilager et al. run against
// monitored hosts. Observations are quantized into (util, memFrac) buckets
// first: bucket hits skip the predictor entirely and bucket misses are
// predicted once at the bucket center.
func (c *Controller) sourceAnchorRows(hits *int) {
	q := c.cache.Quant()
	for i := range c.slots {
		s := &c.slots[i]
		if !s.Present {
			continue
		}
		util := telemetry.Clamp01(s.Reading.Util)
		mem := telemetry.Clamp01(s.Reading.MemFrac)
		key, qUtil, qMem := q.UtilMem(util, mem)
		if v, ok := c.cache.Lookup(key); ok {
			s.Anchor = v
			*hits++
			continue
		}
		if prev, ok := c.missByKey[key]; ok {
			// Another host already staged this bucket this round; share its
			// prediction without folding the row again.
			c.anchorRefs = append(c.anchorRefs, anchorRef{slot: int32(i), rowIdx: int32(prev)})
			continue
		}
		c.missByKey[key] = len(c.anchorRows)
		c.stageMiss(i, key, c.utilizationRow(qUtil, qMem))
	}
}

// utilizationRow folds an observed (util, memFrac) load as one VM on the
// configured host shape: one task per physical core, each at the observed
// utilization fraction, with memFrac of installed memory active. The
// deployment structure (VM count, vCPUs, task count) is fixed — only the
// continuous load values vary — so every encoded feature is continuous
// (Lipschitz) in the observation. That continuity is what lets the anchor
// cache bound cached-vs-exact divergence by the quantization bucket width:
// a structure that jumped at integer demand boundaries would put a bucket's
// center and its members on different sides of a step.
func (c *Controller) utilizationRow(util, memFrac float64) HostRow {
	util = telemetry.Clamp01(util)
	memFrac = telemetry.Clamp01(memFrac)
	cores := c.cfg.HostShape.Cores
	memGB := memFrac * c.cfg.HostShape.MemoryGB
	if memGB < 1 {
		memGB = 1
	}
	task := vmm.Task{Class: vmm.CPUBound, CPUFraction: util, MemGB: memGB / float64(cores) / 2}
	row := HostRow{AmbientC: c.cfg.SourceAmbientC}
	for k := 0; k < cores; k++ {
		row.Fold.AddTask(util, &task)
	}
	row.Fold.AddVM(vmm.VMConfig{VCPUs: cores, MemoryGB: memGB})
	return row
}
