package fleet

import (
	"fmt"
	"math"
	"slices"
	"time"

	"vmtherm/internal/engine"
	"vmtherm/internal/telemetry"
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

	engine  engine.RoundStats
	maxPred float64 // the largest non-stale prediction, 0 with none

	gen    *snapGen // the generation being built, then published
	stream streamDelta

	applied, proposed        int
	placed, queued, rejected int
}

// RunRound advances the telemetry source by Δ_update seconds and executes
// one control round as the fixed stage sequence below (one line per stage in
// the package doc). advanceSource and resolveAnchors fail before the round
// counter moves and before anything is published: the controller stays on
// the previous round's snapshot, readings already admitted stay in the host
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

// advanceSource opens the round's write generation, runs the source for one
// calibration interval with its readings admitted into the host table as
// they are emitted, and records the source clock. Simulator failures are bugs
// and abort; live sources (scrape) fail transiently, so the loop records the
// error and lets staleness degradation do its job. Either way the readings
// emitted before the failure stay admitted and counted.
func (c *Controller) advanceSource(rs *roundState) error {
	c.drainGen++
	err := c.src.Advance(c.cfg.UpdateEveryS, c.emit)
	rs.drained = min(c.srcOffered, c.ingest.capacity)
	c.ingest.received.Add(int64(rs.drained))
	c.ingest.dropped.Add(int64(c.srcOffered - rs.drained))
	c.srcOffered = 0
	if err != nil {
		if c.sub != nil {
			return err
		}
		rs.sourceErr = err.Error()
		c.noteError(fmt.Sprintf("round %d: source: %s", c.round+1, rs.sourceErr))
	}
	rs.now = c.src.NowS()
	return nil
}

// admitSourceReading is the source's emitter: the tee, if attached, sees the
// reading in emission order; an implausible temperature is counted as
// rejected and refused; once the round's budget of ingest capacity readings
// is spent, a reading is dropped (counted when the advance returns); anything
// else is admitted into its host's slot under the round lock.
func (c *Controller) admitSourceReading(r Reading) bool {
	if tee := c.tee.Load(); tee != nil {
		(*tee)(r)
	}
	if reason := telemetry.ClassifyTemp(r.TempC); reason != telemetry.RejectNone {
		c.ingest.countRejected(reason)
		return false
	}
	if c.srcOffered++; c.srcOffered > c.ingest.capacity {
		return false
	}
	c.admit(&r)
	return true
}

// drainIngest drains the pushed readings into the host table and bounds the
// table: hosts a simulated fleet does not own are cut, and discovered
// populations are capped at MaxHosts, so a misbehaving producer cannot grow
// it (or the published snapshot) without bound. The membership work (the
// cut, the rebuild + sort) runs only on rounds where a host came or went.
func (c *Controller) drainIngest(rs *roundState) {
	rs.drained += c.drain(rs.now)
	if _, rej := c.IngestRejected(); rej > c.lastRejected {
		c.noteError(fmt.Sprintf("round %d: ingest: rejected %d implausible readings", c.round+1, rej-c.lastRejected))
		c.lastRejected = rej
	}
	if c.sub == nil {
		rs.discarded = c.refreshDiscoveredHosts()
	} else if own := len(c.sub.IDs()); len(c.eng.IDs()) > own {
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
	rs.fanout = len(c.anchorRows)
	c.lastFanout.Store(int64(rs.fanout))
	return nil
}

// engineRound runs the session engine over the host table: sessions are
// made, calibrate, re-anchor (on drift or a mark), predict, degrade and are
// evicted in one pass, and each host's prediction lands in its own slot.
func (c *Controller) engineRound(rs *roundState) {
	rs.engine = c.eng.RoundSlots(rs.now)
	if rs.engine.Forgotten > 0 {
		// Forgotten hosts lost their reading: membership changed.
		c.orderDirty = true
	}
}

// buildSnapshot advances the round counter and builds the hot set from
// *predicted* temperatures into the next snapshot generation: a recycled
// retired generation whose slices and columns are rewritten in place, so the
// warm round's publication allocates nothing. One pass over the slots, in
// table order, copies the columns (each host's fresh prediction, NaN when
// stale or unpredicted, and its latest reading), collects each hot host's
// row into the generation and its key (margin, slot) into hotKeys
// for propose, and finds the round's largest fresh prediction for the
// report; the stale hosts then come out in id order from a walk of the
// membership's byID that stops at the last of them. Nothing is sorted: the
// set's order is built by the first reader that asks for it
// (Snapshot.Hotspots). The membership is rebuilt only when the table
// changed.
func (c *Controller) buildSnapshot(rs *roundState) {
	ids, slots := c.eng.IDs(), c.eng.Slots()
	n := len(ids)
	rs.gen = c.snaps.writable(n)
	snap := &rs.gen.snap
	c.round++
	snap.Round = c.round
	snap.SimTimeS = rs.now
	snap.GapS = c.cfg.GapS
	snap.ThresholdC = c.cfg.ThresholdC
	if c.members == nil {
		c.members = newMembership(ids)
	}
	m := c.members
	snap.members = m
	snap.pred = slices.Grow(snap.pred[:0], n)[:n]
	snap.latest = slices.Grow(snap.latest[:0], n)[:n]
	snap.present = slices.Grow(snap.present[:0], n)[:n]
	thr, hot, keys, maxPred, stale := c.cfg.ThresholdC, snap.hot[:0], c.hotKeys[:0], math.Inf(-1), 0
	for i := range slots {
		s := &slots[i]
		snap.pred[i], snap.latest[i], snap.present[i] = math.NaN(), s.Reading, s.Present
		if !s.Predicted {
			continue
		}
		t := s.Pred.TempC
		if s.Pred.Stale {
			stale++
			continue
		}
		if snap.pred[i] = t; t > maxPred {
			maxPred = t
		}
		if t > thr {
			hot = append(hot, hotspotOf(&s.Pred, thr))
			keys = append(keys, hotKey{t - thr, int32(i)})
		}
	}
	snap.StaleHosts = snap.StaleHosts[:0]
	for k := 0; len(snap.StaleHosts) < stale; k++ {
		if s := &slots[m.byID[k]]; s.Predicted && s.Pred.Stale {
			snap.StaleHosts = append(snap.StaleHosts, m.ids[m.byID[k]])
		}
	}
	snap.hot, c.hotKeys = hot, keys
	rs.maxPred = maxPred
	if math.IsInf(maxPred, -1) {
		rs.maxPred = 0 // no fresh prediction
	}
}

// reconcileStream folds the authoritative hot set into the incremental
// hotspot index, counting every entry the streaming path had let drift.
// After this the index and the snapshot agree bit-for-bit (until the next
// push moves the index ahead again). No-op until the first push.
func (c *Controller) reconcileStream(rs *roundState) {
	if st := c.stream.Load(); st != nil {
		rs.stream = st.roundDelta()
		rs.stream.drift = st.idx.reconcile(rs.gen.snap.hot, st.reconSeen)
	}
}

// migrate applies last round's still-valid proposals, bounded per round,
// then derives fresh proposals from this round's predictions. Source-driven
// fleets have no substrate to act on; both passes no-op.
func (c *Controller) migrate(rs *roundState) {
	if c.sub != nil {
		snap := &rs.gen.snap
		rs.applied = c.reconcile(snap.pred)
		c.pendingP = c.propose(c.hotKeys, c.eng.Slots())
		rs.proposed = len(c.pendingP)
	}
}

// publish makes the generation the served snapshot BEFORE queued VMs are
// placed: placement avoids predicted hotspots by consulting the published
// columns, which must be this round's, not last round's. From here on the
// columns are immutable; the legacy maps are filled by the first borrow.
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
		if _, placed := c.sub.Owner(id); !placed && !requeued[id] {
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
	return RoundReport{
		Round:              c.round,
		SimTimeS:           rs.now,
		Hosts:              len(c.eng.IDs()),
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
		AnchorEvictedTotal: c.cache.Stats().Evicted,
		Reanchored:         rs.engine.Reanchored,
		Evicted:            rs.engine.Evicted,
		DiscardedHosts:     rs.discarded,
		SourceError:        rs.sourceErr,
		RecentErrors:       slices.Clone(c.recentErrs),
		Hotspots:           len(snap.hot),
		MaxPredictedC:      rs.maxPred,
		Placements:         rs.placed,
		Queued:             rs.queued,
		Rejections:         rs.rejected,
		ProposedMoves:      rs.proposed,
		AppliedMoves:       rs.applied,
		StreamApplied:      rs.stream.applied,
		StreamDeferred:     rs.stream.deferred,
		StreamHotDrift:     rs.stream.drift,
	}
}
