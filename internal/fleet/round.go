package fleet

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"vmtherm/internal/engine"
	"vmtherm/internal/workload"
)

// roundState carries one round's intermediate results from stage to stage.
// RunRound owns it on its stack; each stage reads what earlier stages wrote
// and fills the fields its doc names, so the data flow of a round is the
// order of the calls in RunRound and nothing else.
type roundState struct {
	now       float64 // source clock after the advance
	sourceErr string  // non-fatal source failure, "" when the advance succeeded

	drained, discarded int

	anchorHits, anchorMisses, fanout int

	preds  []Prediction
	engine engine.RoundStats

	gen    *snapGen // the generation being built, then published
	stream streamDelta

	applied, proposed        int
	placed, queued, rejected int
}

// RunRound advances the telemetry source by Δ_update seconds and executes
// one control round as the fixed stage sequence below (one line per stage in
// the package doc). advanceSource and resolveAnchors fail before the round
// counter moves and before anything is published: the controller stays on
// the previous round's snapshot, readings already drained stay in the host
// table, and the next RunRound starts clean. drainPlacements fails after the
// publish: the round stands and the undecided requests are re-parked.
func (c *Controller) RunRound() (RoundReport, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var rs roundState
	roundStart := time.Now()
	if err := c.advanceSource(&rs); err != nil {
		return RoundReport{}, err
	}
	ctrlStart := time.Now()
	c.drainIngest(&rs)
	if err := c.resolveAnchors(&rs); err != nil {
		return RoundReport{}, err
	}
	c.engineRound(&rs)
	c.buildSnapshot(&rs)
	c.reconcileStream(&rs)
	c.migrate(&rs)
	c.publish(&rs)
	if err := c.drainPlacements(&rs); err != nil {
		return RoundReport{}, err
	}
	rep := c.report(&rs)
	rep.Latency, rep.ControlLatency = time.Since(roundStart), time.Since(ctrlStart)
	return rep, nil
}

// advanceSource runs the source for one calibration interval, streaming
// readings into the bounded pipeline as it goes, and records the source
// clock. Simulator failures are bugs and abort; live sources (scrape) fail
// transiently, so the loop records the error and lets staleness degradation
// do its job.
func (c *Controller) advanceSource(rs *roundState) error {
	if err := c.src.Advance(c.cfg.UpdateEveryS, *c.emit.Load()); err != nil {
		if c.sim != nil {
			return err
		}
		rs.sourceErr = err.Error()
		c.noteError(fmt.Sprintf("round %d: source: %s", c.round+1, rs.sourceErr))
	}
	rs.now = c.src.NowS()
	return nil
}

// drainIngest drains the pipeline into the host table, newest reading per
// host wins. Readings for hosts a simulated fleet does not own are
// discarded, and discovered populations are bounded by MaxHosts, so a
// misbehaving producer cannot grow the table (or the published snapshot)
// without bound — the pipeline's memory bound must hold end to end.
// Membership work (the foreign-host cut, the table rebuild + sort) runs only
// on rounds where an unknown host actually appeared or one was dropped.
func (c *Controller) drainIngest(rs *roundState) {
	rs.drained = c.drain(rs.now)
	if _, rej := c.IngestRejected(); rej > c.lastRejected {
		c.noteError(fmt.Sprintf("round %d: ingest: rejected %d implausible readings", c.round+1, rej-c.lastRejected))
		c.lastRejected = rej
	}
	if c.sim == nil {
		rs.discarded = c.refreshDiscoveredHosts()
	} else if own := len(c.sim.order); len(c.order) > own {
		c.dropForeignHosts(own)
	}
}

// resolveAnchors resolves ψ_stable per tracked host — quantized-cache hits
// directly, misses through one (deduplicated, worker-sharded) batch
// prediction over current deployments (simulated fleets) or observed
// utilization (source-driven fleets); see anchors.
func (c *Controller) resolveAnchors(rs *roundState) (err error) {
	if rs.anchorHits, rs.anchorMisses, err = c.anchors(); err != nil {
		return err
	}
	rs.fanout = len(c.caseBuf)
	c.lastFanout.Store(int64(rs.fanout))
	return nil
}

// engineRound runs the session engine over the host table: sessions
// calibrate, re-anchor, predict, degrade and evict in one pass over the
// reusable prediction buffer.
func (c *Controller) engineRound(rs *roundState) {
	c.predBuf, rs.engine = c.eng.RoundSlots(c.predBuf[:0], rs.now, c.order, c.slots)
	rs.preds = c.predBuf
	if rs.engine.Forgotten > 0 {
		// Forgotten hosts lost their reading: membership changed.
		c.orderDirty = true
	}
}

// buildSnapshot advances the round counter and builds the hotspot map from
// *predicted* temperatures into the next snapshot generation: a recycled
// retired generation whose maps are rewritten in place, so the warm round's
// publication allocates nothing.
func (c *Controller) buildSnapshot(rs *roundState) {
	rs.gen = c.snaps.writable(len(c.order))
	snap := &rs.gen.snap
	c.round++
	snap.Round = c.round
	snap.SimTimeS = rs.now
	snap.GapS = c.cfg.GapS
	snap.ThresholdC = c.cfg.ThresholdC
	snap.StaleHosts = snap.StaleHosts[:0]
	snap.Hotspots = snap.Hotspots[:0]
	for i := range rs.preds {
		p := &rs.preds[i]
		if p.Stale {
			snap.StaleHosts = append(snap.StaleHosts, p.HostID)
		} else if p.TempC > c.cfg.ThresholdC {
			snap.Hotspots = append(snap.Hotspots, hotspotOf(p, c.cfg.ThresholdC))
		}
	}
	slices.Sort(snap.StaleHosts)
	sortHotspots(snap.Hotspots)

	// The two map rewrites touch disjoint maps and only read the prediction
	// buffer / the host table; at fleet scale Predicted is rewritten on its
	// own goroutine while this one does Latest.
	preds := rs.preds
	if c.cfg.PhysWorkers > 1 && len(c.order) >= simParallelMinHosts {
		var wg sync.WaitGroup
		defer wg.Wait()
		wg.Add(1)
		go func() {
			defer wg.Done()
			rewritePredicted(snap.Predicted, preds)
		}()
	} else {
		rewritePredicted(snap.Predicted, preds)
	}
	rewriteLatest(snap.Latest, c.order, c.slots)
}

// reconcileStream folds the authoritative recompute into the incremental
// hotspot index, counting every entry the streaming path had let drift.
// After this the index and the snapshot agree bit-for-bit (until the next
// push moves the index ahead again). No-op with streaming ingest off.
func (c *Controller) reconcileStream(rs *roundState) {
	if c.stream != nil {
		rs.stream = c.stream.roundDelta()
		rs.stream.drift = c.stream.idx.reconcile(rs.gen.snap.Hotspots, c.stream.reconSeen)
	}
}

// migrate applies last round's still-valid proposals, bounded per round,
// then derives fresh proposals from this round's map. Source-driven fleets
// have no substrate to act on; both passes no-op.
func (c *Controller) migrate(rs *roundState) {
	if c.sim != nil {
		snap := &rs.gen.snap
		rs.applied = c.reconcile(snap.Predicted)
		c.pendingP = c.propose(snap.Hotspots, snap.Predicted)
		rs.proposed = len(c.pendingP)
	}
}

// publish makes the generation the served snapshot BEFORE queued VMs are
// placed: placement avoids predicted hotspots by consulting the published
// map, which must be this round's, not last round's. From here on the
// generation is immutable.
func (c *Controller) publish(rs *roundState) {
	c.snaps.publish(rs.gen)
	c.hotUpdatedNano.Store(time.Now().UnixNano())
}

// drainPlacements places the queued VM requests against the fresh hotspot
// map: one batch call amortizes the ranking, shortlist and anchor-case
// prediction across the whole drained queue. Requests the admission policy
// parks (headroom, per-round cap) re-enter c.pending for the next round, and
// so does every drained request still unplaced when the batch fails midway
// (a transient predictor error): a request leaves the queue only with a
// decision.
func (c *Controller) drainPlacements(rs *roundState) error {
	c.pendMu.Lock()
	queue := c.pending
	c.pending = nil
	c.pendMu.Unlock()
	if len(queue) == 0 {
		return nil
	}
	decs, err := c.placeBatchLocked(queue)
	if err != nil {
		c.repark(queue)
		return err
	}
	rs.placed, rs.queued, rs.rejected = TallyDecisions(decs)
	return nil
}

// repark puts the undecided remainder of a failed drain back at the head of
// the pending queue, each request exactly once: VMs the batch had already
// placed are skipped, and entries parkOrReject re-queued before the failure
// are not doubled. The depth bound gates new admissions only; requests that
// were already admitted are never dropped to honor it.
func (c *Controller) repark(queue []workload.VMSpec) {
	requeued := make(map[string]bool, len(queue))
	keep := queue[:0]
	for i := range queue {
		id := queue[i].ID
		if _, placed := c.sim.vmHost[id]; !placed && !requeued[id] {
			requeued[id] = true
			keep = append(keep, queue[i])
		}
	}
	c.pendMu.Lock()
	for i := range c.pending {
		if !requeued[c.pending[i].ID] {
			keep = append(keep, c.pending[i])
		}
	}
	c.pending = keep
	c.pendMu.Unlock()
}

// report assembles the round's metrics from the stage outputs and the
// cumulative counters.
func (c *Controller) report(rs *roundState) RoundReport {
	snap := &rs.gen.snap
	_, droppedTotal, supersededTotal := c.ingest.stats()
	var anchorEvicted int64
	if c.cache != nil {
		anchorEvicted = c.cache.Stats().Evicted
	}
	// The non-stale predictions are exactly snap.Predicted's values.
	maxPred := math.Inf(-1)
	for i := range rs.preds {
		if p := &rs.preds[i]; !p.Stale && p.TempC > maxPred {
			maxPred = p.TempC
		}
	}
	if math.IsInf(maxPred, -1) {
		maxPred = 0
	}
	return RoundReport{
		Round:              c.round,
		SimTimeS:           rs.now,
		Hosts:              len(c.order),
		SessionsLive:       rs.engine.Live,
		TelemetryDrained:   rs.drained,
		DroppedTotal:       droppedTotal,
		SupersededTotal:    supersededTotal,
		StaleHosts:         len(snap.StaleHosts),
		MaxStalenessS:      rs.engine.MaxStalenessS,
		AnchorFailures:     rs.engine.AnchorFailures,
		AnchorHits:         rs.anchorHits,
		AnchorMisses:       rs.anchorMisses,
		AnchorFanout:       rs.fanout,
		AnchorEvictedTotal: anchorEvicted,
		Reanchored:         rs.engine.Reanchored,
		Evicted:            rs.engine.Evicted,
		DiscardedHosts:     rs.discarded,
		SourceError:        rs.sourceErr,
		RecentErrors:       slices.Clone(c.recentErrs),
		Hotspots:           len(snap.Hotspots),
		MaxPredictedC:      maxPred,
		Placements:         rs.placed,
		Queued:             rs.queued,
		Rejections:         rs.rejected,
		ProposedMoves:      rs.proposed,
		AppliedMoves:       rs.applied,
		StreamApplied:      rs.stream.applied,
		StreamCreated:      rs.stream.created,
		StreamDeferred:     rs.stream.deferred,
		StreamHotDrift:     rs.stream.drift,
	}
}
