package engine

import (
	"fmt"
	"sort"

	"vmtherm/internal/core"
)

// SessionState is one session's complete serializable state: the predictor
// (curve anchors, configuration, calibration γ and its Δ_update clock), the
// ψ_stable the session is anchored to, the anchor instant, and the newest
// telemetry instant (the staleness/eviction clock). Together these are
// exactly what a warm restart must carry so the restored session observes,
// calibrates, re-anchors and evicts identically to the original.
type SessionState struct {
	ID        string
	Predictor core.PredictorState
	StableC   float64
	AnchorAtS float64
	LastAtS   float64
}

// State is an engine's complete serializable state. A checkpoint written
// when it also carried the prediction service's id counter (NextID, always
// 0 in fleet checkpoints) still decodes: gob skips the field.
type State struct {
	// Sessions is every live session, sorted by id (deterministic bytes for
	// identical state).
	Sessions []SessionState
}

// Snapshot captures every live session. It is safe for concurrent use and
// holds the round gate's read side for the capture, so the capture falls
// between two rounds' passes and never holds half of one; a concurrent push
// is in it whole or not at all.
func (e *Engine) Snapshot() State {
	var st State
	e.gate.RLock()
	for i := range e.shards {
		sh := &e.shards[i]
		sh.mu.RLock()
		for id, sess := range sh.sessions {
			sess.mu.Lock()
			st.Sessions = append(st.Sessions, SessionState{
				ID:        id,
				Predictor: sess.pred.State(),
				StableC:   sess.stable,
				AnchorAtS: sess.anchorAt,
				LastAtS:   sess.lastAtS,
			})
			sess.mu.Unlock()
		}
		sh.mu.RUnlock()
	}
	e.gate.RUnlock()
	sort.Slice(st.Sessions, func(i, j int) bool { return st.Sessions[i].ID < st.Sessions[j].ID })
	return st
}

// Restore replaces the engine's entire session population with the captured
// state. Existing sessions are discarded; the engine configuration is kept
// (each session's curve and calibration config travel inside its predictor
// state).
// On error the engine is left empty rather than half-restored.
func (e *Engine) Restore(st State) error {
	for i := range e.shards {
		sh := &e.shards[i]
		sh.mu.Lock()
		for _, sess := range sh.sessions {
			sess.removed.Store(true)
		}
		clear(sh.sessions)
		sh.mu.Unlock()
	}
	e.count.Store(0)
	for _, ss := range st.Sessions {
		if ss.ID == "" {
			return fmt.Errorf("engine: restore: session %d has empty id", len(st.Sessions))
		}
		pred, err := core.RestorePredictor(ss.Predictor)
		if err != nil {
			return fmt.Errorf("engine: restore session %q: %w", ss.ID, err)
		}
		sess := &session{pred: *pred, stable: ss.StableC, anchorAt: ss.AnchorAtS, lastAtS: ss.LastAtS}
		sh := e.shardFor(ss.ID)
		sh.mu.Lock()
		if _, dup := sh.sessions[ss.ID]; dup {
			sh.mu.Unlock()
			return fmt.Errorf("engine: restore: duplicate session id %q", ss.ID)
		}
		sh.sessions[ss.ID] = sess
		sh.mu.Unlock()
		e.count.Add(1)
	}
	return nil
}
