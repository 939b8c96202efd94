package engine

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
