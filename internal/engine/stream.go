// Streaming fast path: the event-driven realization of the paper's online
// loop. Where Round is batch-per-Δ_update — collect the fleet's newest
// readings, then sweep — ObserveBatch applies pushed readings to their
// sessions the moment they arrive (calibration on the session's own
// Δ_update schedule, inline warm-anchor session creation),
// and PredictFresh answers the Δ_gap-ahead query a reading implies from
// current session state without waiting for the next round.
//
// The two paths compose: the calibrator in core.DynamicPredictor is
// idempotent per timestamp (an observe within Δ_update of the last one is
// a no-op), so a reading streamed on arrival and then re-presented by the
// next batch round calibrates exactly once. Round stays the authority for
// staleness degradation, re-anchoring on deployment drift, and eviction;
// the streaming path only moves fresh telemetry and fresh predictions off
// the round clock.
package engine

import "vmtherm/internal/telemetry"

// AnchorLookup resolves a ψ_stable anchor for a host that has no session
// yet — the inline warm case, typically backed by the fleet's anchor cache.
// Returning ok=false defers the host to the next batch round (which runs
// the full batch model); the lookup must not block on model evaluation. It
// runs under the round gate's write side: of the engine it may call only
// Len, and it must not block on a lock a round's caller holds (the fleet's
// lookup only TryLocks its round lock).
type AnchorLookup func(r telemetry.Reading) (stableC float64, ok bool)

// StreamStats summarizes one streaming call.
type StreamStats struct {
	// Applied counts readings fed into a session on arrival.
	Applied int
	// Created counts sessions built inline from a warm anchor lookup.
	Created int
	// Deferred counts readings left for the next batch round: no session
	// and no warm anchor (or an unusable one). The readings are not lost —
	// callers keep them flowing into the round pipeline.
	Deferred int
	// Rejected counts readings refused for implausible temperatures (NaN,
	// ±Inf, outside the telemetry plausibility bounds): one poisoned
	// observation would corrupt a session's γ for every prediction after
	// it, so the engine is the last line of defense even when an upstream
	// pipeline already filters.
	Rejected int
}

// observeOne applies a single pushed reading: look the session up, create
// it inline when a warm anchor resolves, and feed the measurement. With pred
// not nil it also writes the Δ_gap-ahead prediction at the reading's own
// timestamp, under the same session lock. The caller holds the gate's read
// side, so a round re-anchoring the session cannot slip between the
// reading's calibration and the prediction made from it; for a host without
// a session observeOne trades it for the write side, creates and applies
// there, and takes the read side back. Reports false when the reading was
// deferred or rejected. The warm path — session exists — takes one session
// lock and does not allocate.
//
// Out-of-order arrivals degrade gracefully: the calibrator ignores
// observations that do not advance its Δ_update schedule, and lastAtS is
// monotonic, so a late duplicate can neither rewind staleness nor
// double-calibrate. Re-anchoring on ψ_stable drift is deliberately left to
// the batch round, which computes anchors from the authoritative
// deployment state.
func (e *Engine) observeOne(r telemetry.Reading, anchor AnchorLookup, st *StreamStats, pred *Prediction) bool {
	if telemetry.ClassifyTemp(r.TempC) != telemetry.RejectNone {
		st.Rejected++
		return false
	}
	sess := e.sessions[r.HostID]
	if sess == nil {
		if anchor == nil {
			st.Deferred++
			return false
		}
		e.gate.RUnlock()
		e.gate.Lock()
		defer func() {
			e.gate.Unlock()
			e.gate.RLock()
		}()
		if sess = e.create(r, anchor, st); sess == nil {
			return false
		}
	}
	sess.mu.Lock()
	sess.feed(r.AtS, r.TempC, nil)
	if pred != nil {
		*pred = Prediction{
			HostID:       r.HostID,
			TempC:        sess.pred.Predict(sess.localT(r.AtS), nil),
			UncertaintyC: uncertaintyBaseC,
		}
	}
	sess.mu.Unlock()
	st.Applied++
	return true
}

// create returns the session of r's host under the gate's write side: the
// one a push or a round registered since the caller looked, or a new one
// anchored at the lookup's warm ψ_stable. It returns nil, counting the
// reading deferred, when the lookup has no anchor or an unusable one.
func (e *Engine) create(r telemetry.Reading, anchor AnchorLookup, st *StreamStats) *session {
	if s := e.sessions[r.HostID]; s != nil {
		return s
	}
	if stableC, ok := anchor(r); ok {
		if s := e.newSession(r.TempC, stableC, r.AtS); s != nil {
			e.insert(r.HostID, s)
			st.Created++
			return s
		}
	}
	st.Deferred++
	return nil
}

// ObserveBatch applies a batch of pushed readings to their sessions on
// arrival. Hosts without a session are created inline when anchor resolves
// a warm ψ_stable, otherwise counted as deferred for the next batch round.
// Safe for concurrent use with Round, PredictFresh, and itself: the batch
// holds the gate's read side, so it applies whole between two rounds'
// passes unless a host in it has no session yet — that host is created
// under the write side, which a waiting round may take first. The warm path
// (all sessions exist) performs zero allocations.
func (e *Engine) ObserveBatch(readings []telemetry.Reading, anchor AnchorLookup) StreamStats {
	var st StreamStats
	e.gate.RLock()
	for i := range readings {
		e.observeOne(readings[i], anchor, &st, nil)
	}
	e.gate.RUnlock()
	return st
}

// PredictFresh is the synchronous-predictive ingest primitive: apply one
// pushed reading and answer the Δ_gap-ahead prediction it implies, in one
// pass. The prediction is evaluated at the reading's own timestamp, so its
// staleness is zero by construction. Reports whether a prediction was
// produced (false when the host was deferred). The reading is applied and
// the prediction made under one hold of the gate's read side and one
// session lock (the write side, for a host seen first here): the prediction
// always comes from the curve the reading calibrated. Allocation-free on the
// warm path.
func (e *Engine) PredictFresh(r telemetry.Reading, anchor AnchorLookup, st *StreamStats, pred *Prediction) bool {
	e.gate.RLock()
	ok := e.observeOne(r, anchor, st, pred)
	e.gate.RUnlock()
	return ok
}
