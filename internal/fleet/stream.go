package fleet

// Streaming ingest: every reading pushed through IngestBatch is applied to
// its host's engine session the moment it arrives (engine.PredictFresh:
// observe, calibrate on the session's Δ_update schedule, predict Δ_gap
// ahead), and the resulting prediction updates a concurrent-read hotspot
// margin index — so /v1/fleet/hotspots and a synchronous-predictive ingest
// reflect the reading in microseconds instead of waiting out the batch
// round. A push never makes a session: one for a host without a session
// (not yet seen by a round, or left without a usable anchor) is deferred
// to the next round, which makes it. The index is built at the
// controller's first accepted push: a fleet fed only by its telemetry
// source never has one and never pays for it.
//
// The batch round stays authoritative: every pushed reading still flows
// through the bounded pipeline into the next round (which owns session
// creation, staleness degradation, re-anchoring and eviction), and at each
// round boundary the incremental index is reconciled against the round's
// full hotspot recompute — a diff that must converge to bit-identical
// contents, with every corrected entry counted as drift in the RoundReport.
// A push to a host whose slot is marked for re-anchoring streams to the old
// curve until that round resets the session and reconciles the index.

import (
	"sync"
	"sync/atomic"
	"time"

	"vmtherm/internal/engine"
	"vmtherm/internal/telemetry"
)

// IngestOutcome describes what happened to one reading pushed through
// IngestBatch.
type IngestOutcome uint8

const (
	// IngestStreamed: queued AND applied on arrival — the session observed
	// the reading and the hotspot index reflects its fresh prediction.
	IngestStreamed IngestOutcome = iota
	// IngestDeferred: queued, but the host has no session to apply it to
	// (no round has made one yet); the next batch round applies it.
	IngestDeferred
	// IngestDropped: the bounded pipeline was full; the reading was lost
	// (and counted) without blocking the producer.
	IngestDropped
	// IngestRejected: the reading's temperature was implausible (NaN, ±Inf,
	// or outside the telemetry plausibility bounds) and was refused — and
	// counted per reason — before it could poison a session's calibration.
	IngestRejected
)

// IngestResult is the per-reading outcome of IngestBatch.
type IngestResult struct {
	Outcome IngestOutcome
	// Pred is the synchronous Δ_gap-ahead prediction for an IngestStreamed
	// reading when the caller asked for predictions.
	Pred Prediction
}

// streamState is the controller's streaming-ingest machinery, nil until the
// first accepted push (liveIndex).
type streamState struct {
	// Cumulative counters, readable without any lock (/metrics, stats lines).
	applied, deferred, predictions atomic.Int64
	// last* anchor the per-round deltas reported in RoundReport; owned by
	// RunRound under the controller's round lock.
	lastApplied, lastDeferred int64
	idx                       hotIndex
	// reconSeen is reconcile's membership scratch, reused across rounds
	// (reconciliation is serialized by the round lock).
	reconSeen map[string]bool
}

// hotIndex is the incrementally maintained hotspot set: one entry per host
// whose freshest prediction exceeds the threshold, plus a lazily rebuilt
// sorted view (descending margin, ties by host id — the order
// Snapshot.Hotspots gives, by the same appendHotspots). Reads are
// concurrent; mutations take the write lock.
type hotIndex struct {
	mu      sync.RWMutex
	entries map[string]Hotspot
	sorted  []Hotspot
	dirty   bool
	// rows and keys are the sorted view's rebuild scratch.
	rows []Hotspot
	keys []hotKey
}

// upsert folds one fresh prediction in: above-threshold hosts get their
// entry written (only when it changed), cooled or stale hosts are dropped.
func (ix *hotIndex) upsert(p *Prediction, thresholdC float64) {
	hot := !p.Stale && p.TempC > thresholdC
	ix.mu.Lock()
	if hot {
		h := hotspotOf(p, thresholdC)
		if cur, ok := ix.entries[p.HostID]; !ok || cur != h {
			ix.entries[p.HostID] = h
			ix.dirty = true
		}
	} else if _, ok := ix.entries[p.HostID]; ok {
		delete(ix.entries, p.HostID)
		ix.dirty = true
	}
	ix.mu.Unlock()
}

// reconcile replaces the index contents with the batch round's full
// recompute, entry by entry, returning how many entries had to be
// corrected (added, dropped, or value-fixed) — the drift the streaming
// path accumulated since the previous round boundary. After reconcile the
// index is bit-identical to batch.
func (ix *hotIndex) reconcile(batch []Hotspot, seen map[string]bool) (drift int) {
	clear(seen)
	ix.mu.Lock()
	for i := range batch {
		h := batch[i]
		seen[h.HostID] = true
		if cur, ok := ix.entries[h.HostID]; !ok || cur != h {
			ix.entries[h.HostID] = h
			drift++
		}
	}
	for id := range ix.entries {
		if !seen[id] {
			delete(ix.entries, id)
			drift++
		}
	}
	if drift > 0 {
		ix.dirty = true
	}
	ix.mu.Unlock()
	return drift
}

// snapshotInto appends the sorted hotspot set to dst. The sorted view is
// rebuilt only when the entries changed since the last read; clean reads
// share the read lock.
func (ix *hotIndex) snapshotInto(dst []Hotspot) []Hotspot {
	ix.mu.RLock()
	if !ix.dirty {
		dst = append(dst, ix.sorted...)
		ix.mu.RUnlock()
		return dst
	}
	ix.mu.RUnlock()
	ix.mu.Lock()
	if ix.dirty {
		ix.rows, ix.keys = ix.rows[:0], ix.keys[:0]
		for _, h := range ix.entries {
			ix.keys = append(ix.keys, hotKey{h.MarginC, int32(len(ix.rows))})
			ix.rows = append(ix.rows, h)
		}
		ix.sorted = appendHotspots(ix.sorted[:0], ix.keys, func(i int32) Hotspot { return ix.rows[i] })
		ix.dirty = false
	}
	dst = append(dst, ix.sorted...)
	ix.mu.Unlock()
	return dst
}

// streamDelta is one round's worth of streaming activity.
type streamDelta struct {
	applied, deferred int64
	drift             int
}

// roundDelta reports activity since the previous round boundary. Called
// under the round lock.
func (st *streamState) roundDelta() (d streamDelta) {
	a, de := st.applied.Load(), st.deferred.Load()
	d.applied, d.deferred = a-st.lastApplied, de-st.lastDeferred
	st.lastApplied, st.lastDeferred = a, de
	return d
}

// newStreamState builds the streaming machinery with an empty index.
func newStreamState() *streamState {
	return &streamState{reconSeen: make(map[string]bool), idx: hotIndex{entries: make(map[string]Hotspot)}}
}

// liveIndex returns the streaming machinery, building it on the first call.
// It is built under the round lock — the first push waits out a round in
// flight, once — and seeded from the published generation's hot set, as
// the round wrote it (neither the legacy maps nor the order, which readers
// may be building concurrently): that is what the last round boundary
// reconciled the index to, so it agrees with the rounds from the moment it
// exists.
func (c *Controller) liveIndex() *streamState {
	if st := c.stream.Load(); st != nil {
		return st
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if st := c.stream.Load(); st != nil {
		return st
	}
	st := newStreamState()
	if snap := c.publishedSnapshot(); snap != nil {
		st.idx.reconcile(snap.HotSet(), st.reconSeen)
	}
	c.stream.Store(st)
	return st
}

// Streaming reports whether the live hotspot index exists: true from the
// first accepted push on.
func (c *Controller) Streaming() bool { return c.stream.Load() != nil }

// StreamTotals returns the cumulative streaming-ingest counters (all zero
// until the first accepted push). Safe to call concurrently with everything.
// created is always 0, since a push never makes a session; the result stays
// until the benchmark that reads all four drops it (ROADMAP item 1).
func (c *Controller) StreamTotals() (applied, created, deferred, predictions int64) {
	st := c.stream.Load()
	if st == nil {
		return 0, 0, 0, 0
	}
	return st.applied.Load(), 0, st.deferred.Load(), st.predictions.Load()
}

// HotspotStalenessS reports how many seconds ago the served hotspot set
// was last refreshed — by a pushed reading's index update or by a round's
// publication, whichever came last. 0 until anything has been served.
func (c *Controller) HotspotStalenessS() float64 {
	v := c.hotUpdatedNano.Load()
	if v == 0 {
		return 0
	}
	return max(0, float64(time.Now().UnixNano()-v)/1e9)
}

// StreamHotspotsInto appends the live incremental hotspot set (sorted by
// descending margin, ties by host id) to dst and returns it. This is the
// freshest view the controller has — it reflects pushed readings
// immediately, ahead of the round that will confirm them. Returns dst
// unchanged and false until the first accepted push has built the index.
func (c *Controller) StreamHotspotsInto(dst []Hotspot) ([]Hotspot, bool) {
	st := c.stream.Load()
	if st == nil {
		return dst, false
	}
	return st.idx.snapshotInto(dst), true
}

// IngestBatch pushes a batch of readings through the ingest pipeline and
// applies each accepted reading on arrival: observe → calibrate →
// Δ_gap-ahead predict → hotspot-index update. The first accepted reading a
// controller ever sees builds the index (liveIndex). The
// per-reading outcome (and, when wantPred, the fresh prediction) is
// written to results[i]; results must be at least len(readings) long.
// Returns how many readings the pipeline accepted. Safe for concurrent use
// with RunRound and itself. The tee, if attached, sees each reading before
// it is classified, as the source emitter does.
//
// Every accepted reading still reaches the next batch round through the
// pipeline — streaming moves freshness, not authority. A dropped reading
// is NOT applied: backpressure must mean the same thing on both paths.
func (c *Controller) IngestBatch(readings []Reading, wantPred bool, results []IngestResult) (accepted int) {
	tee := c.tee.Load()
	var st *streamState
	var es engine.StreamStats
	var touched bool
	for i := range readings {
		if tee != nil {
			(*tee)(readings[i])
		}
		if reason := telemetry.ClassifyTemp(readings[i].TempC); reason != telemetry.RejectNone {
			// Classified here so the caller gets the typed outcome;
			// push takes only plausible readings.
			c.ingest.countRejected(reason)
			results[i] = IngestResult{Outcome: IngestRejected}
			continue
		}
		if !c.ingest.push(readings[i]) {
			results[i] = IngestResult{Outcome: IngestDropped}
			continue
		}
		accepted++
		if st == nil {
			st = c.liveIndex()
		}
		var p Prediction
		if !c.eng.PredictFresh(readings[i], nil, &es, &p) {
			results[i] = IngestResult{Outcome: IngestDeferred}
			continue
		}
		st.idx.upsert(&p, c.cfg.ThresholdC)
		touched = true
		if wantPred {
			results[i] = IngestResult{Outcome: IngestStreamed, Pred: p}
			st.predictions.Add(1)
		} else {
			results[i] = IngestResult{Outcome: IngestStreamed}
		}
	}
	if st != nil {
		if es.Applied > 0 {
			st.applied.Add(int64(es.Applied))
		}
		if es.Deferred > 0 {
			st.deferred.Add(int64(es.Deferred))
		}
		if touched {
			c.hotUpdatedNano.Store(time.Now().UnixNano())
		}
	}
	return accepted
}
