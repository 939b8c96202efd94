// Streaming fast path: the event-driven realization of the paper's online
// loop. Where a round is batch-per-Δ_update — collect the fleet's newest
// readings, then sweep — ObserveBatch applies pushed readings to their
// sessions the moment they arrive (calibration on the session's own
// Δ_update schedule), and PredictFresh answers the Δ_gap-ahead query a
// reading implies from current session state without waiting for the next
// round. A push finds its host's session through the table's index; a host
// without one is deferred to the next round, which makes sessions — unless
// the caller passes an AnchorLookup, for callers with no round of their own.
//
// The two paths compose: the calibrator in core.DynamicPredictor is
// idempotent per timestamp (an observe within Δ_update of the last one is
// a no-op), so a reading streamed on arrival and then re-presented by the
// next batch round calibrates exactly once. The round stays the authority
// for staleness degradation, re-anchoring on deployment drift or a mark,
// and eviction; the streaming path only moves fresh telemetry and fresh
// predictions off the round clock.
package engine

import "vmtherm/internal/telemetry"

// AnchorLookup resolves a ψ_stable anchor for a host that has no session
// yet, so a push can create the session itself (appending a slot when the
// host has none: a table's driver gives every pushed host its slot first);
// ok=false defers the host. It runs under the round gate's write side and
// must not call back into the engine. Callers whose rounds make their
// sessions pass nil.
type AnchorLookup func(r telemetry.Reading) (stableC float64, ok bool)

// StreamStats summarizes one streaming call.
type StreamStats struct {
	// Applied counts readings fed into a session on arrival.
	Applied int
	// Created counts sessions built from the caller's AnchorLookup.
	Created int
	// Deferred counts readings left for the next batch round: no session
	// and no usable anchor to build one from. The readings are not lost —
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
// it when the caller's anchor lookup resolves, and feed the measurement.
// With pred not nil it also writes the Δ_gap-ahead prediction at the
// reading's own timestamp, under the same session lock. The caller holds the
// gate's read side, so a round re-anchoring the session cannot slip between
// the reading's calibration and the prediction made from it; to create a
// session observeOne trades it for the write side, creates and applies
// there, and takes the read side back. Reports false when the reading was
// deferred or rejected. The warm path — session exists — takes one session
// lock and does not allocate.
//
// Out-of-order arrivals degrade gracefully: the calibrator ignores
// observations that do not advance its Δ_update schedule, and lastAtS is
// monotonic, so a late duplicate can neither rewind staleness nor
// double-calibrate. Re-anchoring is deliberately left to the batch round,
// which computes anchors from the authoritative deployment state.
func (e *Engine) observeOne(r telemetry.Reading, anchor AnchorLookup, st *StreamStats, pred *Prediction) bool {
	if telemetry.ClassifyTemp(r.TempC) != telemetry.RejectNone {
		st.Rejected++
		return false
	}
	sess := e.session(r.HostID)
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
// one created since the caller looked, or a new one anchored at the lookup's
// ψ_stable; nil, counting the reading deferred, when there is no usable one.
func (e *Engine) create(r telemetry.Reading, anchor AnchorLookup, st *StreamStats) *session {
	if s := e.session(r.HostID); s != nil {
		return s
	}
	if stableC, ok := anchor(r); ok {
		if s := new(session); e.anchor(s, r.TempC, stableC, r.AtS) == nil {
			i := e.slotOf(r.HostID)
			e.slots[i].sess = s
			st.Created++
			return s
		}
	}
	st.Deferred++
	return nil
}

// ObserveBatch applies a batch of pushed readings to their sessions on
// arrival. Hosts without a session are created when anchor resolves a
// ψ_stable, otherwise counted as deferred for the next batch round. Safe for
// concurrent use with rounds, PredictFresh, and itself: the batch holds the
// gate's read side, so it applies whole between two rounds' passes unless it
// creates a session — that host is created under the write side, which a
// waiting round may take first. The warm path (all sessions exist) performs
// zero allocations.
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
// session lock (the write side, for a session created here): the prediction
// always comes from the curve the reading calibrated. Allocation-free on the
// warm path.
func (e *Engine) PredictFresh(r telemetry.Reading, anchor AnchorLookup, st *StreamStats, pred *Prediction) bool {
	e.gate.RLock()
	ok := e.observeOne(r, anchor, st, pred)
	e.gate.RUnlock()
	return ok
}
