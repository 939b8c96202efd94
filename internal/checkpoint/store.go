package checkpoint

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
)

// ErrNoCheckpoint reports that neither generation file exists — a cold
// start, not a failure.
var ErrNoCheckpoint = errors.New("checkpoint: no checkpoint found")

// Store is a two-generation checkpoint file set rooted at a base path:
// writes alternate between <base>.1 and <base>.2 with a monotonically
// increasing sequence number inside the frame, and Load picks the valid
// file with the highest sequence. Each write goes to a temp file in the
// same directory, is fsynced, and is renamed into place — so a crash at
// any instant (including SIGKILL mid-write) can only lose the write in
// flight, never the previous good generation. Methods require external
// synchronization (one checkpointer per store).
type Store struct {
	base string

	probed  bool
	nextSeq uint64
	slot    int // index into Generations() the next Save targets
}

// tempInfix follows the base name in the temp files Save writes through
// (<base>.tmp-<random>); Load sweeps by the same name.
const tempInfix = ".tmp-"

// NewStore roots a store at base (the -checkpoint-file flag value).
func NewStore(base string) *Store { return &Store{base: base} }

// Base returns the base path the generations derive from.
func (s *Store) Base() string { return s.base }

// Generations returns the two generation file paths.
func (s *Store) Generations() [2]string {
	return [2]string{s.base + ".1", s.base + ".2"}
}

// readGen decodes one generation file. A missing file returns fs.ErrNotExist.
func readGen(path string) (*State, uint64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, err
	}
	return Decode(bytes.NewReader(b))
}

// Load returns the newest valid checkpoint. When neither generation file
// exists it returns ErrNoCheckpoint; when files exist but none passes
// validation it returns the (ErrFormat-wrapping) decode error of the
// highest-numbered generation — corruption is distinguishable from a cold
// start so operators see it. Load also primes the write cursor, so the
// next Save overwrites the stale generation, not the one just restored, and
// removes the temp files of writes a killed process never finished.
func (s *Store) Load() (*State, uint64, error) {
	s.sweepTemps()
	var (
		best     *State
		bestSeq  uint64
		bestSlot = -1
		lastErr  = ErrNoCheckpoint // until a file exists and fails to decode
	)
	for i, path := range s.Generations() {
		st, seq, err := readGen(path)
		switch {
		case errors.Is(err, fs.ErrNotExist):
		case err != nil:
			lastErr = fmt.Errorf("%s: %w", path, err)
		case best == nil || seq > bestSeq:
			best, bestSeq, bestSlot = st, seq, i
		}
	}
	if best == nil {
		s.probed, s.nextSeq, s.slot = true, 1, 0
		return nil, 0, lastErr
	}
	s.probed = true
	s.nextSeq = bestSeq + 1
	s.slot = 1 - bestSlot
	return best, bestSeq, nil
}

// sweepTemps removes <base>.tmp-* siblings. A process killed between Save's
// CreateTemp and Rename never runs its deferred Remove, and nothing else
// would: each such kill would leak one checkpoint-sized file forever.
// Best-effort; the generation files never match the prefix.
func (s *Store) sweepTemps() {
	dir, prefix := filepath.Dir(s.base), filepath.Base(s.base)+tempInfix
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), prefix) {
			_ = os.Remove(filepath.Join(dir, e.Name()))
		}
	}
}

// Save writes st as the next generation, returning the bytes written. The
// write is atomic: a temp file in the destination directory is written,
// fsynced and renamed over the older generation slot.
func (s *Store) Save(st *State) (int64, error) {
	if !s.probed {
		// Prime the cursor off whatever is on disk so a fresh process never
		// overwrites the newest generation first.
		if _, _, err := s.Load(); err != nil && !errors.Is(err, ErrNoCheckpoint) && !errors.Is(err, ErrFormat) {
			return 0, err
		}
	}
	target := s.Generations()[s.slot]
	dir := filepath.Dir(target)
	tmp, err := os.CreateTemp(dir, filepath.Base(s.base)+tempInfix+"*")
	if err != nil {
		return 0, err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	n, err := Encode(tmp, s.nextSeq, st)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return 0, err
	}
	if err := os.Rename(tmp.Name(), target); err != nil {
		return 0, err
	}
	// Make the rename itself durable; best-effort where the platform or
	// filesystem does not support syncing directories.
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
	s.nextSeq++
	s.slot = 1 - s.slot
	return n, nil
}
