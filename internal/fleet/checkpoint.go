package fleet

// Checkpoint/Restore: the controller's crash-safety surface. Checkpoint cuts
// the full serving state at a round boundary — every engine session's γ
// calibration and staleness clocks, the round counter, the pending placement
// queue, in-flight migration proposals, cumulative ingest counters, the
// streaming hotspot index, and the anchor cache with its generation split —
// into a checkpoint.State; Restore rebuilds all of it on a freshly
// constructed controller of the same configuration. A restored controller
// continues bit-identically to a never-restarted twin: same RoundReports,
// same recorded trace bytes (proved by TestCheckpointRestoreTwin).
//
// The simulated substrate (internal/substrate: physics, placements, clocks)
// is not captured, so neither are the sessions calibrated against it: over
// a substrate both halves carry the anchor cache only — what a restart
// there can actually reuse — and everything else recalibrates.

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"vmtherm/internal/checkpoint"
	"vmtherm/internal/telemetry"
)

// Checkpoint captures the controller's full serving state at a round
// boundary (the anchor cache only, over a substrate; see the file comment).
// Safe to call concurrently with Submit/Ingest (it takes the round lock);
// call it between rounds, not from inside one.
//
// Readings sitting in the bounded ingest pipeline but not yet drained by a
// round are NOT captured: a checkpoint is a round-boundary cut, and an
// undrained reading is indistinguishable from one that arrived during the
// outage — the staleness machinery handles both identically.
func (c *Controller) Checkpoint() (*checkpoint.State, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	cur, prev := c.cache.DumpGenerations()
	st := &checkpoint.State{
		SavedUnixNano: time.Now().UnixNano(),
		SourceName:    c.src.Name(),
		AnchorCache: &checkpoint.CacheState{
			Quant: c.cache.Quant(),
			Cur:   cur,
			Prev:  prev,
			Stats: c.cache.Stats(),
			Epoch: c.cache.Epoch(),
		},
	}
	if c.sub != nil {
		return st, nil
	}

	st.Round = c.round
	st.SourceNowS = c.src.NowS()
	st.Engine = c.eng.Snapshot()
	st.Order = slices.Clone(c.order)
	st.OrderDirty = c.orderDirty
	st.RecentErrors = slices.Clone(c.recentErrs)
	st.LastRejected = c.lastRejected
	st.LastFanout = c.lastFanout.Load()

	st.Latest = make([]telemetry.Reading, 0, len(c.slots))
	for i := range c.slots {
		if c.slots[i].Present {
			st.Latest = append(st.Latest, c.slots[i].Reading)
		}
	}
	slices.SortFunc(st.Latest, func(a, b telemetry.Reading) int { return strings.Compare(a.HostID, b.HostID) })

	if len(c.pendingP) > 0 {
		st.Proposals = make([]checkpoint.Proposal, len(c.pendingP))
		for i, p := range c.pendingP {
			st.Proposals[i] = checkpoint.Proposal(p)
		}
	}

	c.pendMu.Lock()
	st.PendingVMs = slices.Clone(c.pending)
	c.pendMu.Unlock()

	st.Ingest.Received, st.Ingest.Dropped, st.Ingest.Superseded = c.ingest.stats()
	st.Ingest.Rejected = c.ingest.rejectedByReason()

	if s := c.stream.Load(); s != nil {
		ss := &checkpoint.StreamState{
			Applied:     s.applied.Load(),
			Created:     s.created.Load(),
			Deferred:    s.deferred.Load(),
			Predictions: s.predictions.Load(),
		}
		s.idx.mu.RLock()
		for _, h := range s.idx.entries {
			ss.Hotspots = append(ss.Hotspots, checkpoint.Hotspot(h))
		}
		s.idx.mu.RUnlock()
		slices.SortFunc(ss.Hotspots, func(a, b checkpoint.Hotspot) int { return strings.Compare(a.HostID, b.HostID) })
		st.Stream = ss
	}

	return st, nil
}

// Restore rebuilds the checkpointed serving state on this controller, which
// must be freshly constructed with the same configuration and source kind
// the checkpoint was taken under. The telemetry source's clock is
// fast-forwarded to the checkpoint's clock with readings discarded — the
// restored process resumes at the cut, and replayed arrivals before it would
// double-observe. A simulated controller restores the anchor cache of a
// checkpoint taken over a simulated fleet and nothing else. On error the
// controller must be discarded (state may be partially applied).
func (c *Controller) Restore(st *checkpoint.State) error {
	if st == nil {
		return fmt.Errorf("fleet: restore: nil checkpoint state")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if got := c.src.Name(); got != st.SourceName {
		return fmt.Errorf("fleet: restore: checkpoint was taken under source %q, controller runs %q", st.SourceName, got)
	}
	if c.sub != nil {
		return c.restoreAnchorCache(st.AnchorCache)
	}
	if st.Round < 0 {
		return fmt.Errorf("fleet: restore: negative round %d", st.Round)
	}
	if len(st.Engine.Sessions) > c.cfg.MaxHosts {
		return fmt.Errorf("fleet: restore: checkpoint has %d sessions, MaxHosts is %d", len(st.Engine.Sessions), c.cfg.MaxHosts)
	}
	if err := c.checkHostState(st); err != nil {
		return err
	}

	if err := c.eng.Restore(st.Engine); err != nil {
		return fmt.Errorf("fleet: restore: %w", err)
	}

	// Rebuild the host table: the checkpointed order, then each reading into
	// its host's slot. A reading whose host the order lacks is kept at the
	// tail, and a host the order names without a reading stays until the
	// next round — both leave the membership dirty, so that round's drain
	// re-sorts and re-bounds the table.
	c.resetTable(st.Order)
	c.orderDirty = st.OrderDirty || len(st.Latest) != len(st.Order)
	for _, r := range st.Latest {
		i := c.slotOf(r.HostID)
		c.orderDirty = c.orderDirty || int(i) >= len(st.Order)
		c.slots[i].Reading, c.slots[i].Present = r, true
	}

	c.pendingP = c.pendingP[:0]
	for _, p := range st.Proposals {
		c.pendingP = append(c.pendingP, MigrationProposal(p))
	}

	c.pendMu.Lock()
	c.pending = append(c.pending[:0], st.PendingVMs...)
	c.pendMu.Unlock()

	c.ingest.received.Store(st.Ingest.Received)
	c.ingest.dropped.Store(st.Ingest.Dropped)
	c.ingest.superseded.Store(st.Ingest.Superseded)
	for i := range c.ingest.rejected {
		c.ingest.rejected[i].Store(st.Ingest.Rejected[i])
	}

	c.recentErrs = append(c.recentErrs[:0], st.RecentErrors...)
	if len(c.recentErrs) == 0 {
		c.recentErrs = nil
	}
	c.lastRejected = st.LastRejected
	c.lastFanout.Store(st.LastFanout)
	c.round = st.Round

	if ss := st.Stream; ss != nil {
		s := newStreamState(c)
		s.applied.Store(ss.Applied)
		s.created.Store(ss.Created)
		s.deferred.Store(ss.Deferred)
		s.predictions.Store(ss.Predictions)
		// Per-round deltas restart from the restored totals, not from zero —
		// otherwise the first restored round would report the whole history.
		s.lastApplied, s.lastCreated, s.lastDeferred = ss.Applied, ss.Created, ss.Deferred
		for _, h := range ss.Hotspots {
			s.idx.entries[h.HostID] = Hotspot(h)
		}
		s.idx.dirty = true
		c.stream.Store(s)
	}

	if err := c.restoreAnchorCache(st.AnchorCache); err != nil {
		return err
	}

	// Fast-forward the fresh source's clock to the checkpoint's, discarding
	// whatever it emits on the way: those readings were already observed (or
	// already superseded) before the cut. TraceSource emission depends only
	// on its clock, so one big Advance lands on exactly the same next-reading
	// boundary the original source had.
	if dt := st.SourceNowS - c.src.NowS(); dt > 0 {
		if err := c.src.Advance(dt, func(telemetry.Reading) bool { return true }); err != nil {
			return fmt.Errorf("fleet: restore: fast-forward source: %w", err)
		}
	}

	return nil
}

// checkHostState vets a checkpoint's host order and newest readings before
// anything is applied: a decoded file is outside input, and the host table
// indexes by what it says. Checkpoint writes both lists sorted by host id
// (the order of a source-driven fleet is sorted discovery order), so in both
// the ids must be non-empty and strictly ascending — which also rules out a
// duplicate host or two readings for one — and neither list may exceed the
// MaxHosts population bound.
func (c *Controller) checkHostState(st *checkpoint.State) error {
	if len(st.Order) > c.cfg.MaxHosts || len(st.Latest) > c.cfg.MaxHosts {
		return fmt.Errorf("fleet: restore: checkpoint has %d hosts and %d readings, MaxHosts is %d", len(st.Order), len(st.Latest), c.cfg.MaxHosts)
	}
	ascending := func(what string, n int, id func(int) string) error {
		for i := 0; i < n; i++ {
			if id(i) == "" {
				return fmt.Errorf("fleet: restore: %s %d has an empty host id", what, i)
			}
			if i > 0 && id(i) <= id(i-1) {
				return fmt.Errorf("fleet: restore: %s ids not strictly ascending at %d (%q after %q)", what, i, id(i), id(i-1))
			}
		}
		return nil
	}
	if err := ascending("order entry", len(st.Order), func(i int) string { return st.Order[i] }); err != nil {
		return err
	}
	return ascending("reading", len(st.Latest), func(i int) string { return st.Latest[i].HostID })
}

// restoreAnchorCache applies a checkpoint's cache section (caller holds mu).
// A nil section — from a run that had the cache switched off — is a no-op.
// Keys address different buckets under different bucket widths, so a
// section recorded under another quantizer — or under none: a checkpoint
// older than the field — is skipped rather than served: the skip is noted
// in the recent-error ring and the next round re-predicts.
func (c *Controller) restoreAnchorCache(cs *checkpoint.CacheState) error {
	if cs == nil {
		return nil
	}
	if have := c.cache.Quant(); cs.Quant != have {
		c.noteError(fmt.Sprintf("restore: anchor cache skipped: checkpoint bucket widths %+v, configured %+v", cs.Quant, have))
		return nil
	}
	if err := c.cache.RestoreGenerations(cs.Cur, cs.Prev); err != nil {
		return fmt.Errorf("fleet: restore: anchor cache: %w", err)
	}
	c.cache.RestoreStats(cs.Stats, cs.Epoch)
	return nil
}

// RestoredSessions reports the live session count — the daemon logs it after
// a restore so operators (and the CI kill-and-restart job) can verify warm
// state survived.
func (c *Controller) RestoredSessions() int { return c.eng.Len() }
