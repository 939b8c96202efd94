package fleet

import (
	"fmt"
	"math"

	"vmtherm/internal/anchorcache"
	"vmtherm/internal/shard"
	"vmtherm/internal/telemetry"
	"vmtherm/internal/vmm"
	"vmtherm/internal/workload"
)

// anchorRef binds one host slot to the miss-batch case its anchor comes from.
type anchorRef struct {
	slot, caseIdx int32
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
	// Cleared, not just truncated: last round's cases and VMs still point
	// into the arrays the arena outgrew (and into host deployment views),
	// and would keep every one of them alive from beyond the slices' length.
	clear(c.caseBuf)
	clear(c.obsVMs)
	c.caseBuf = c.caseBuf[:0]
	c.caseKeys = c.caseKeys[:0]
	c.anchorRefs = c.anchorRefs[:0]
	c.obsTasks, c.obsVMs = c.obsTasks[:0], c.obsVMs[:0]
	clear(c.missByKey)
	if c.sub != nil {
		err = c.simAnchorCases(&hits)
	} else {
		c.sourceAnchorCases(&hits)
	}
	misses = len(c.anchorRefs)
	c.cache.Count(hits, misses)
	if err != nil {
		return 0, 0, err
	}
	if len(c.caseBuf) > 0 {
		if cap(c.anchorVals) < len(c.caseBuf) {
			c.anchorVals = make([]float64, len(c.caseBuf))
		}
		vals := c.anchorVals[:len(c.caseBuf)]
		if err := c.predictMissBatch(c.caseBuf, vals); err != nil {
			return 0, 0, fmt.Errorf("fleet: stable anchors: %w", err)
		}
		for i, k := range c.caseKeys {
			// Never memoize a degenerate prediction: a NaN anchor must stay
			// a per-round failure, not a cached one.
			if !math.IsNaN(vals[i]) {
				c.cache.Put(k, vals[i])
			}
		}
		for _, ref := range c.anchorRefs {
			c.slots[ref.slot].Anchor = vals[ref.caseIdx]
		}
	}
	return hits, misses, nil
}

// stageMiss registers a host whose anchor must be predicted this round,
// staging its case into the miss batch. Key-based deduplication lives in
// sourceAnchorCases (the only path where two hosts can share a key —
// simulated fingerprints embed fleet-unique VM ids).
func (c *Controller) stageMiss(slot int, key anchorcache.Key, cse workload.Case) {
	c.anchorRefs = append(c.anchorRefs, anchorRef{slot: int32(slot), caseIdx: int32(len(c.caseBuf))})
	c.caseBuf = append(c.caseBuf, cse)
	c.caseKeys = append(c.caseKeys, key)
}

// predictMissBatch evaluates the staged miss cases into out, sharding the
// batch across the configured worker bound when it is large enough to
// amortize the goroutines — cold rounds (first sight of a fleet, mass
// re-anchor after migration waves) scale with cores instead of serializing
// behind one kernel pass. Callers hold c.mu: the batch is parked on the
// controller for predictChunk, so a miss batch costs no closure.
func (c *Controller) predictMissBatch(cases []workload.Case, out []float64) error {
	const minShard = 16
	c.missCases, c.missOut = cases, out
	return shard.Run(len(cases), c.cfg.AnchorWorkers, minShard, c.predictChunk)
}

// predictMissChunk is predictMissBatch's share for cases [lo, hi).
func (c *Controller) predictMissChunk(lo, hi int) error {
	vals, err := c.predict(c.missCases[lo:hi])
	if err != nil {
		return err
	}
	if len(vals) != hi-lo {
		return fmt.Errorf("fleet: %d anchors for %d cases", len(vals), hi-lo)
	}
	copy(c.missOut[lo:hi], vals)
	return nil
}

// simAnchorCases resolves every occupied host's anchor — from the cache
// when its deployment fingerprint (VM set + per-VM task load + quantized
// util/mem/inlet) is already memoized, else by staging its current
// deployment as a miss case. Idle hosts anchor at their inlet temperature
// (an idle machine settles at ambient) without touching cache or model.
//
// The pass is phased so the per-host VM/task walks scale with cores at
// fleet size: a rack-sharded scan derives inlets and fingerprint keys, the
// serial cache pass consumes them and stages the misses in host order (map
// access and hit accounting stay single-threaded), and a sharded build
// constructs the staged misses' deployment cases. Values, staging order and
// cache state are identical to the former single loop.
func (c *Controller) simAnchorCases(hits *int) error {
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
	c.missAmb = c.missAmb[:0]
	for i, inlet := range inlets {
		if c.sub.Host(i).NumVMs() == 0 {
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
		// Staged in host order with an empty case; buildMissCases fills it.
		c.missIdx = append(c.missIdx, i)
		c.missAmb = append(c.missAmb, amb)
		c.stageMiss(i, key, workload.Case{})
	}
	return c.buildMissCases()
}

// buildMissCases constructs the staged misses' deployment cases in place
// (caseBuf[mi] belongs to host missIdx[mi]: the sim path is caseBuf's only
// writer this round), sharded across the physics pool at scale: each build
// only reads host/VM state and writes its own host's view and its own slot
// (the case borrows the view: the round consumes caseBuf before the next
// tick or mutation). The ambient is the inlet bucket center the cache pass
// chose — the former per-miss InletTemp recomputation was an O(rack)
// utilization sweep per case, redundant with the per-tick inlet cache.
func (c *Controller) buildMissCases() error {
	if len(c.missIdx) == 0 {
		return nil
	}
	const minShard = 64
	return shard.Run(len(c.missIdx), c.cfg.PhysWorkers, minShard, func(lo, hi int) error {
		for mi := lo; mi < hi; mi++ {
			i := c.missIdx[mi]
			cse, err := c.sub.HostCase(i, c.missAmb[mi], nil, nil)
			if err != nil {
				return fmt.Errorf("fleet: anchor case for %s: %w", c.order[i], err)
			}
			c.caseBuf[mi] = cse
		}
		return nil
	})
}

// sourceAnchorCases synthesizes an anchor case per observed host from its
// latest reading: the observed utilization and memory activity become an
// equivalent single-VM deployment on the configured host shape, so real
// (replayed or scraped) telemetry flows through the same trained model as
// simulated fleets — the deployment loop Ilager et al. run against
// monitored hosts. Observations are quantized into (util, memFrac) buckets
// first: bucket hits skip the predictor entirely and bucket misses are
// predicted once at the bucket center.
func (c *Controller) sourceAnchorCases(hits *int) {
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
			// prediction without rebuilding the case.
			c.anchorRefs = append(c.anchorRefs, anchorRef{slot: int32(i), caseIdx: int32(prev)})
			continue
		}
		c.missByKey[key] = len(c.caseBuf)
		c.stageMiss(i, key, c.utilizationCase(qUtil, qMem))
	}
}

// utilizationCase encodes an observed (util, memFrac) load as a workload
// case on the configured host shape: one task per physical core, each at
// the observed utilization fraction, with memFrac of installed memory
// active. The deployment structure (VM count, vCPUs, task count) is fixed —
// only the continuous load values vary — so every encoded feature is
// continuous (Lipschitz) in the observation. That continuity is what lets
// the anchor cache bound cached-vs-exact divergence by the quantization
// bucket width: a structure that jumped at integer demand boundaries would
// put a bucket's center and its members on different sides of a step.
//
// The case's VM and tasks are carved from the round's arena: like every
// miss case they are valid until the next anchors() call. When an arena
// grows, cases carved earlier keep the old backing array — never written
// again — so they stay intact.
func (c *Controller) utilizationCase(util, memFrac float64) workload.Case {
	util = telemetry.Clamp01(util)
	memFrac = telemetry.Clamp01(memFrac)
	cores := c.cfg.HostShape.Cores
	memGB := memFrac * c.cfg.HostShape.MemoryGB
	if memGB < 1 {
		memGB = 1
	}
	t0 := len(c.obsTasks)
	for _, id := range c.obsTaskIDs {
		c.obsTasks = append(c.obsTasks, workload.TaskSpec{Task: vmm.Task{
			ID:          id,
			Class:       vmm.CPUBound,
			CPUFraction: util,
			MemGB:       memGB / float64(cores) / 2,
		}})
	}
	v0 := len(c.obsVMs)
	c.obsVMs = append(c.obsVMs, workload.VMSpec{
		ID:     "observed",
		Config: vmm.VMConfig{VCPUs: cores, MemoryGB: memGB},
		Tasks:  c.obsTasks[t0:len(c.obsTasks):len(c.obsTasks)],
	})
	return workload.Case{
		Name:     "observed",
		Host:     c.cfg.HostShape,
		FanCount: c.cfg.FanCount,
		AmbientC: c.cfg.SourceAmbientC,
		VMs:      c.obsVMs[v0 : v0+1 : v0+1],
	}
}
