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
// the full batch model); the lookup must be safe for concurrent calls and
// must not block on model evaluation. It runs under the round gate's read
// side: it must not call back into the engine or block on a lock a round's
// caller holds (the fleet's lookup only TryLocks its round lock).
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
// reading's calibration and the prediction made from it. Reports false when
// the reading was deferred or rejected. The warm path — session exists —
// takes one shard RLock and one session lock and does not allocate.
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
	sess, _ := e.get(r.HostID)
	if sess == nil {
		if anchor == nil {
			st.Deferred++
			return false
		}
		stableC, ok := anchor(r)
		if !ok {
			st.Deferred++
			return false
		}
		ns := new(session)
		if e.anchor(ns, SessionParams{Phi0: r.TempC, StableC: stableC, AnchorAtS: r.AtS}) != nil {
			st.Deferred++
			return false
		}
		sh := e.shardFor(r.HostID)
		sh.mu.Lock()
		if cur, had := sh.sessions[r.HostID]; had {
			// Lost a create race (concurrent push or round); theirs wins.
			sess = cur
		} else {
			sh.sessions[r.HostID] = ns
			sess = ns
			e.count.Add(1)
			st.Created++
		}
		sh.mu.Unlock()
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

// ObserveBatch applies a batch of pushed readings to their sessions on
// arrival. Hosts without a session are created inline when anchor resolves
// a warm ψ_stable, otherwise counted as deferred for the next batch round.
// Safe for concurrent use with Round, PredictFresh, and itself: the batch
// holds the gate's read side, so it applies whole between two rounds'
// passes. The warm path (all sessions exist) performs zero allocations.
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
// session lock: the prediction always comes from the curve the reading
// calibrated. Allocation-free on the warm path.
func (e *Engine) PredictFresh(r telemetry.Reading, anchor AnchorLookup, st *StreamStats, pred *Prediction) bool {
	e.gate.RLock()
	ok := e.observeOne(r, anchor, st, pred)
	e.gate.RUnlock()
	return ok
}
