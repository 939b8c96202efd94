package checkpoint

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"
)

// Status is the checkpoint subsystem's observable state, served by
// GET /v1/fleet/checkpoint and scraped into the vmtherm_checkpoint_*
// counters.
type Status struct {
	// Enabled reports whether checkpointing is configured at all.
	Enabled bool
	// Path is the base path (generations at <Path>.1 / <Path>.2).
	Path string `json:",omitempty"`
	// IntervalS is the periodic checkpoint cadence (0 = final-only).
	IntervalS float64 `json:",omitempty"`
	// Writes/BytesWritten/Restores/Failures are cumulative totals.
	Writes       int64
	BytesWritten int64
	Restores     int64
	Failures     int64
	// LastWriteUnix is the wall-clock time of the last successful write.
	LastWriteUnix int64 `json:",omitempty"`
	// LastSequence is the newest generation's sequence number.
	LastSequence uint64 `json:",omitempty"`
	// LastError describes the most recent failure, if any.
	LastError string `json:",omitempty"`
}

// Manager wraps a Store with the counters and status surface the daemons
// and the HTTP plane share. Save and Restore are serialized internally;
// Status is safe to call concurrently with both.
type Manager struct {
	store     *Store
	intervalS float64

	mu       sync.Mutex // serializes store access; guards lastErr, lastSave
	lastErr  string
	lastSave time.Time // last successful write (creation time before the first)

	writes, bytesW, restores, failures atomic.Int64
	lastWriteUnix                      atomic.Int64
	lastSeq                            atomic.Uint64
}

// NewManager roots a manager at the -checkpoint-file base path.
func NewManager(path string, intervalS float64) *Manager {
	return &Manager{store: NewStore(path), intervalS: intervalS, lastSave: time.Now()}
}

// Path returns the base path.
func (m *Manager) Path() string { return m.store.Base() }

// Save persists st as the next generation, updating the counters.
func (m *Manager) Save(st *State) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	n, err := m.store.Save(st)
	if err != nil {
		m.failures.Add(1)
		m.lastErr = err.Error()
		return err
	}
	m.writes.Add(1)
	m.bytesW.Add(n)
	m.lastSave = time.Now()
	m.lastWriteUnix.Store(m.lastSave.Unix())
	m.lastSeq.Store(m.store.nextSeq - 1)
	m.lastErr = ""
	return nil
}

// SaveIfDue is the daemons' one checkpoint step: when a write is due it
// captures the serving state (capture is Controller.Checkpoint), persists
// it, and counts a failure of either half. A write is due when force is set
// — the shutdown checkpoint, which ignores the cadence — or when the
// periodic interval is non-zero and has elapsed since the last successful
// write (since the manager's creation, before the first). It returns the
// state it wrote, nil when nothing was due. Safe on a nil manager
// (checkpointing disabled): capture is never called.
func (m *Manager) SaveIfDue(capture func() (*State, error), force bool) (*State, error) {
	if m == nil {
		return nil, nil
	}
	if !force {
		m.mu.Lock()
		due := m.intervalS > 0 && time.Since(m.lastSave).Seconds() >= m.intervalS
		m.mu.Unlock()
		if !due {
			return nil, nil
		}
	}
	st, err := capture()
	if err != nil {
		// The controller failed to assemble its state: count it like a
		// failed write, so the status surface shows checkpoints are stuck.
		m.failures.Add(1)
		m.mu.Lock()
		m.lastErr = err.Error()
		m.mu.Unlock()
		return nil, err
	}
	if err := m.Save(st); err != nil {
		return nil, err
	}
	return st, nil
}

// Restore loads the newest valid checkpoint. A cold start (no files)
// returns (nil, nil); corrupt-only files count as a failure and return the
// decode error so the caller can log it and proceed cold.
func (m *Manager) Restore() (*State, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	st, seq, err := m.store.Load()
	if err != nil {
		if errors.Is(err, ErrNoCheckpoint) {
			return nil, nil
		}
		m.failures.Add(1)
		m.lastErr = err.Error()
		return nil, err
	}
	m.restores.Add(1)
	m.lastSeq.Store(seq)
	return st, nil
}

// Status snapshots the counters. Safe on a nil manager (checkpointing
// disabled): every field zero, Enabled false.
func (m *Manager) Status() Status {
	if m == nil {
		return Status{}
	}
	m.mu.Lock()
	lastErr := m.lastErr
	m.mu.Unlock()
	return Status{
		Enabled:       true,
		Path:          m.store.Base(),
		IntervalS:     m.intervalS,
		Writes:        m.writes.Load(),
		BytesWritten:  m.bytesW.Load(),
		Restores:      m.restores.Load(),
		Failures:      m.failures.Load(),
		LastWriteUnix: m.lastWriteUnix.Load(),
		LastSequence:  m.lastSeq.Load(),
		LastError:     lastErr,
	}
}
