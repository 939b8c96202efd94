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

// State is an engine's complete serializable state.
type State struct {
	// NextID is the service-facing id counter ("s1", "s2", ...), so a
	// restored engine never reissues a live session's id.
	NextID uint64
	// Sessions is every live session, sorted by id (deterministic bytes for
	// identical state).
	Sessions []SessionState
}

// Snapshot captures every live session. It is safe against concurrent
// Observe/Predict/Create/Delete traffic but, like Round, must not overlap a
// Round on the same engine if the capture is to be a consistent cut.
func (e *Engine) Snapshot() State {
	st := State{NextID: e.nextID.Load()}
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
	sort.Slice(st.Sessions, func(i, j int) bool { return st.Sessions[i].ID < st.Sessions[j].ID })
	return st
}

// Restore replaces the engine's entire session population with the captured
// state. Existing sessions are discarded; the engine configuration is kept
// (per-session overrides travel inside each session's predictor config).
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
	e.nextID.Store(st.NextID)
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
