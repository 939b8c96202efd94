package engine

import "vmtherm/internal/telemetry"

// adopt builds a session anchored at (φ(atS), ψ_stable) and registers it
// under id, which has none, as a round's first sight does; nil when the
// anchors do not describe a valid curve.
func (e *Engine) adopt(id string, phi0, stableC, atS float64) *session {
	e.gate.Lock()
	defer e.gate.Unlock()
	s := e.newSession(phi0, stableC, atS)
	if s != nil {
		e.insert(id, s)
	}
	return s
}

// get looks id's session up under the gate's read side.
func (e *Engine) get(id string) (*session, bool) {
	e.gate.RLock()
	defer e.gate.RUnlock()
	s, ok := e.sessions[id]
	return s, ok
}

// HoldSession takes id's session mutex and returns the function that
// releases it, or nil when id has no session: what a push stalled inside its
// session lock looks like to a round.
func (e *Engine) HoldSession(id string) (release func()) {
	s, ok := e.get(id)
	if !ok {
		return nil
	}
	s.mu.Lock()
	return s.mu.Unlock
}

// predict answers id's ψ(t + Δ_gap) and γ without a memo, under the locks a
// push takes: the direct evaluation the tests hold rounds and pushes to.
func (e *Engine) predict(id string, t float64) (tempC, gamma float64, err error) {
	e.gate.RLock()
	defer e.gate.RUnlock()
	s, ok := e.sessions[id]
	if !ok {
		return 0, 0, ErrNoSession
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pred.Predict(s.localT(t), nil), s.pred.Gamma(), nil
}

// observe pushes one reading into id's existing session and returns the γ
// it leaves.
func (e *Engine) observe(id string, t, tempC float64) (gamma float64, err error) {
	if st := e.ObserveBatch([]telemetry.Reading{{HostID: id, AtS: t, TempC: tempC}}, nil); st.Applied != 1 {
		return 0, ErrNoSession
	}
	_, gamma, err = e.predict(id, t)
	return gamma, err
}

// predictions lists the slots' predictions in slot order: the list the keyed
// Round returns for the same hosts.
func predictions(slots []Slot) []Prediction {
	var out []Prediction
	for i := range slots {
		if slots[i].Predicted {
			out = append(out, slots[i].Pred)
		}
	}
	return out
}

// predicted counts the slots holding a prediction, allocating nothing.
func predicted(slots []Slot) (n int) {
	for i := range slots {
		if slots[i].Predicted {
			n++
		}
	}
	return n
}
