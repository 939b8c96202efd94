package engine

import "vmtherm/internal/telemetry"

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
	s, ok := e.get(id)
	if !ok {
		return 0, 0, ErrNoSession
	}
	e.gate.RLock()
	defer e.gate.RUnlock()
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
