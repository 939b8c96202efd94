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
	for i := range e.slots {
		sess := e.slots[i].sess
		if sess == nil {
			continue
		}
		sess.mu.Lock()
		st.Sessions = append(st.Sessions, SessionState{
			ID:        e.ids[i],
			Predictor: sess.pred.State(),
			StableC:   sess.stable,
			AnchorAtS: sess.anchorAt,
			LastAtS:   sess.lastAtS,
		})
		sess.mu.Unlock()
	}
	e.gate.RUnlock()
	sort.Slice(st.Sessions, func(i, j int) bool { return st.Sessions[i].ID < st.Sessions[j].ID })
	return st
}

// Restore replaces the engine's host table with one slot per captured
// session, in the state's order, each without a reading; the configuration
// is kept (each session's curve and calibration config travel inside its
// predictor state). The table is rebuilt under one hold of the gate's write
// side, and on error the engine is left empty rather than half-restored.
func (e *Engine) Restore(st State) (err error) {
	e.gate.Lock()
	defer e.gate.Unlock()
	e.ids, e.slots, e.index = nil, nil, make(map[string]int32, len(st.Sessions))
	for i, ss := range st.Sessions {
		if ss.ID == "" {
			err = fmt.Errorf("engine: restore: session %d has empty id", i)
		} else if _, dup := e.index[ss.ID]; dup {
			err = fmt.Errorf("engine: restore: duplicate session id %q", ss.ID)
		} else if pred, perr := core.RestorePredictor(ss.Predictor); perr != nil {
			err = fmt.Errorf("engine: restore session %q: %w", ss.ID, perr)
		} else {
			j := e.slotOf(ss.ID)
			e.slots[j].sess = &session{pred: *pred, stable: ss.StableC, anchorAt: ss.AnchorAtS, lastAtS: ss.LastAtS}
			continue
		}
		e.ids, e.slots = nil, nil
		clear(e.index)
		return err
	}
	return nil
}
