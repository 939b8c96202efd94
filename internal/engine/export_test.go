package engine

import "vmtherm/internal/telemetry"

// adopt builds a session anchored at (φ(atS), ψ_stable) and installs it in
// id's slot (appended when id has none), as a round's first sight does; nil
// when the anchors do not describe a valid curve.
func (e *Engine) adopt(id string, phi0, stableC, atS float64) *session {
	e.gate.Lock()
	defer e.gate.Unlock()
	s := new(session)
	if e.anchor(s, phi0, stableC, atS) != nil {
		return nil
	}
	i := e.slotOf(id)
	e.slots[i].sess = s
	return s
}

// drop takes id's session out of its slot, reporting whether it had one —
// what a round does to a marked host whose anchor fails, on demand.
func (e *Engine) drop(id string) bool {
	e.gate.Lock()
	defer e.gate.Unlock()
	if i, ok := e.index[id]; ok && e.slots[i].sess != nil {
		e.slots[i].sess = nil
		return true
	}
	return false
}

// get looks id's session up under the gate's read side.
func (e *Engine) get(id string) (*session, bool) {
	e.gate.RLock()
	defer e.gate.RUnlock()
	s := e.session(id)
	return s, s != nil
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
	s := e.session(id)
	if s == nil {
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

// roundSlots drives one round the way the table's driver does, over slots
// the test keeps parallel to ids: it writes each slot's inputs (reading,
// presence, anchor, mark) into the table under its id, adding an id the
// table lacks, runs RoundSlots, and copies each slot's outputs (presence,
// mark, prediction) back. Allocation-free once every id has its slot.
func (e *Engine) roundSlots(nowS float64, ids []string, slots []Slot) RoundStats {
	for i, id := range ids {
		j := e.SlotOf(id)
		t, s := &e.slots[j], &slots[i]
		t.Reading, t.Present, t.Anchor, t.Reanchor = s.Reading, s.Present, s.Anchor, s.Reanchor
	}
	st := e.RoundSlots(nowS)
	for i, id := range ids {
		t, s := &e.slots[e.index[id]], &slots[i]
		s.Present, s.Reanchor, s.Pred, s.Predicted = t.Present, t.Reanchor, t.Pred, t.Predicted
	}
	return st
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
