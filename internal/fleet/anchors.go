package fleet

import (
	"fmt"
	"math"
	"sync"

	"vmtherm/internal/anchorcache"
	"vmtherm/internal/telemetry"
	"vmtherm/internal/vmm"
	"vmtherm/internal/workload"
)

// anchorRef binds one host slot to the miss-batch case its anchor comes from.
type anchorRef struct {
	slot, caseIdx int32
}

// anchors batch-predicts ψ_stable for every tracked host into its slot's
// Anchor (NaN where the host gets none this round). With the cache enabled,
// only quantized-key misses are staged (deduplicated per key) and fanned
// through the batch predictor; a fully warm round touches the predictor not
// at all and allocates nothing. It returns the round's cache hit and miss
// counts (with the cache disabled, every anchored host counts as a miss).
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
	if c.sim != nil {
		if err := c.simAnchorCases(&hits); err != nil {
			return 0, 0, err
		}
	} else {
		c.sourceAnchorCases(&hits)
	}
	misses = len(c.anchorRefs)
	if len(c.caseBuf) > 0 {
		if cap(c.anchorVals) < len(c.caseBuf) {
			c.anchorVals = make([]float64, len(c.caseBuf))
		}
		vals := c.anchorVals[:len(c.caseBuf)]
		if err := c.predictMissBatch(c.caseBuf, vals); err != nil {
			return 0, 0, fmt.Errorf("fleet: stable anchors: %w", err)
		}
		if c.cache != nil {
			for i, k := range c.caseKeys {
				// Never memoize a degenerate prediction: a NaN anchor must
				// stay a per-round failure, not a cached one.
				if !math.IsNaN(vals[i]) {
					c.cache.Put(k, vals[i])
				}
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

// shard runs fn over [0, n) split into contiguous chunks, one goroutine per
// chunk, using at most workers goroutines and never fewer than minPer
// indices each (below that the goroutine overhead outweighs the work). With
// one worker fn(0, n) runs on the caller's goroutine. Every chunk runs to
// its own first error and the error of the lowest-indexed failing chunk is
// returned — first in index order, not first to finish — so the fan-out
// adds no nondeterminism of its own.
func shard(n, workers, minPer int, fn func(lo, hi int) error) error {
	if maxW := (n + minPer - 1) / minPer; workers > maxW {
		workers = maxW
	}
	if workers <= 1 {
		return fn(0, n)
	}
	chunk := (n + workers - 1) / workers
	errs := make([]error, (n+chunk-1)/chunk)
	var wg sync.WaitGroup
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = fn(i*chunk, min((i+1)*chunk, n))
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
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
	return shard(len(cases), c.cfg.AnchorWorkers, minShard, c.predictChunk)
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
// when its deployment fingerprint (VM set + lifecycle states + quantized
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
	var q anchorcache.Quantizer
	if c.cache != nil {
		// The sim path predicts a miss at the host's actual deployment
		// snapshot (task fractions cannot be re-centered), so the cached
		// value can diverge from another bucket member by up to a FULL
		// bucket — unlike the source path, which predicts at the bucket
		// center and is off by at most half. Quartering the load bucket
		// widths caps the sim load error at half the source epsilon, which
		// leaves room for the half-ambient-bucket share so the composed sim
		// error stays within the ReanchorEpsC/2 bound Config.Validate
		// enforces.
		q = c.cache.Quant()
		q.UtilQuant /= 4
		q.MemQuant /= 4
	}
	if err := c.simAnchorScan(q); err != nil {
		return err
	}
	c.missIdx = c.missIdx[:0]
	c.missAmb = c.missAmb[:0]
	for i, sh := range c.sim.byPos {
		inlet := c.simInlets[i]
		if sh.host.NumVMs() == 0 {
			c.slots[i].Anchor = inlet
			continue
		}
		key, amb := anchorcache.Key(0), inlet
		if c.cache != nil {
			key = c.simKeys[i]
			if v, ok := c.cache.Get(key); ok {
				c.slots[i].Anchor = v
				*hits++
				continue
			}
			// Predict at the inlet bucket's center so the cached value serves
			// the whole bucket with at most half a bucket of ambient error.
			_, amb = q.Ambient(inlet)
		}
		// Staged in host order with an empty case; buildMissCases fills it.
		c.missIdx = append(c.missIdx, i)
		c.missAmb = append(c.missAmb, amb)
		c.stageMiss(i, key, workload.Case{})
	}
	return c.buildMissCases()
}

// simAnchorScan fills the per-host inlet and fingerprint scratch,
// rack-sharded at scale (pure computation over rack-local state; every
// worker writes disjoint indices).
func (c *Controller) simAnchorScan(q anchorcache.Quantizer) error {
	fs := c.sim
	n := len(c.order)
	if cap(c.simInlets) < n {
		c.simInlets = make([]float64, n)
		c.simKeys = make([]anchorcache.Key, n)
	}
	c.simInlets = c.simInlets[:n]
	c.simKeys = c.simKeys[:n]
	if c.cfg.PhysWorkers > 1 && n >= simParallelMinHosts {
		return fs.shardRacks(func(lo, hi int) error { return c.scanRackAnchors(lo, hi, q) })
	}
	return c.scanRackAnchors(0, len(fs.racks), q)
}

// scanRackAnchors is racks [lo, hi)'s share of simAnchorScan.
func (c *Controller) scanRackAnchors(lo, hi int, q anchorcache.Quantizer) error {
	fs := c.sim
	for i := fs.rackSpan[lo][0]; i < fs.rackSpan[hi-1][1]; i++ {
		sh := fs.byPos[i]
		inlet, err := fs.inletAt(sh)
		if err != nil {
			return err
		}
		c.simInlets[i] = inlet
		if c.cache != nil && sh.host.NumVMs() > 0 {
			c.simKeys[i] = simAnchorKey(sh, q, inlet)
		}
	}
	return nil
}

// simAnchorKey derives a host's deployment fingerprint: the cache key that
// changes exactly when something the feature encoder can see changes.
func simAnchorKey(sh *simHost, q anchorcache.Quantizer, inlet float64) anchorcache.Key {
	ambBucket, _ := q.Ambient(inlet)
	util, mem := sh.host.Loads()
	bu, bm := q.UtilMemBuckets(util, mem)
	h := anchorcache.NewHash()
	for vi := 0; vi < sh.host.NumVMs(); vi++ {
		vm := sh.host.VMAt(vi)
		// The fingerprint must cover everything the feature encoder can
		// see in the deployment snapshot: identity and lifecycle state,
		// plus the per-VM load *distribution* (raw task-fraction sum and
		// max, quantized) — dynamic profiles can redistribute load
		// between tasks without moving total host utilization, and
		// features like task_cpu_max follow the distribution.
		cpuSum, cpuMax := vm.TaskCPUStats()
		h = h.String(vm.ID()).Uint64(uint64(vm.State())).
			Uint64(q.UtilBucket(cpuSum)).Uint64(q.UtilBucket(cpuMax))
	}
	return h.Uint64(ambBucket).Uint64(bu).Uint64(bm).Key()
}

// buildMissCases constructs the staged misses' deployment cases in place
// (caseBuf[mi] belongs to host missIdx[mi]: the sim path is caseBuf's only
// writer this round), sharded across the physics pool at scale: each build
// only reads host/VM state and writes its own host's view and its own slot
// (the case borrows the view: the round consumes caseBuf before the next
// tick or mutation). The ambient is the value
// the cache pass chose (bucket center with the cache on, the host's inlet
// otherwise) — the former per-miss InletTemp recomputation was an O(rack)
// utilization sweep per case, redundant with the per-tick inlet cache.
func (c *Controller) buildMissCases() error {
	if len(c.missIdx) == 0 {
		return nil
	}
	const minShard = 64
	return shard(len(c.missIdx), c.cfg.PhysWorkers, minShard, func(lo, hi int) error {
		for mi := lo; mi < hi; mi++ {
			i := c.missIdx[mi]
			cse, err := c.sim.hostCase(c.sim.byPos[i], c.missAmb[mi], nil, nil)
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
// monitored hosts. With the cache enabled, observations are quantized into
// (util, memFrac) buckets first: bucket hits skip the predictor entirely
// and bucket misses are predicted once at the bucket center.
func (c *Controller) sourceAnchorCases(hits *int) {
	var q anchorcache.Quantizer
	if c.cache != nil {
		q = c.cache.Quant()
	}
	for i := range c.slots {
		s := &c.slots[i]
		if !s.Present {
			continue
		}
		util := telemetry.Clamp01(s.Reading.Util)
		mem := telemetry.Clamp01(s.Reading.MemFrac)
		if c.cache == nil {
			c.stageMiss(i, 0, c.utilizationCase(util, mem))
			continue
		}
		key, qUtil, qMem := q.UtilMem(util, mem)
		if v, ok := c.cache.Get(key); ok {
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
