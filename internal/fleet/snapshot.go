package fleet

import (
	"slices"
	"strings"
	"sync/atomic"

	"vmtherm/internal/engine"
)

// The snapshot publication path is epoch-versioned and copy-on-read: every
// round the controller fills one snapGen (a generation) and publishes it
// with an atomic pointer swap. Readers borrow the published generation
// without copying anything; the writer recycles a retired generation's maps
// and slices in place — rewriting only what changed — once no reader can
// still observe it. That turns the per-round snapshot clone (formerly the
// warm round's dominant garbage: O(hosts) maps plus two slices) into zero
// allocations in steady state.
//
// Safety protocol (all sync/atomic, hence sequentially consistent):
//
//   - The writer mutates only generations obtained from writable(), which
//     never returns the published generation and skips any retired
//     generation with readers in flight (readers > 0).
//   - A reader (ViewSnapshot, the one read path) loads the published
//     pointer, increments the generation's reader count, and re-validates
//     that the pointer is still published before touching the data; on
//     failure it decrements and retries. If the writer observed
//     readers == 0 after retiring a generation, any concurrent increment
//     must re-validate after that observation — and the swap that retired
//     the generation precedes the observation, so the re-validation sees a
//     different published pointer and the reader backs off without reading.
type snapGen struct {
	snap Snapshot
	// readers counts in-flight borrows (ViewSnapshot).
	readers atomic.Int64
}

// snapStore owns the generation ring: the published generation (readable by
// anyone), plus retired spares the writer recycles. All fields except
// published are writer-owned (guarded by the controller's round lock).
type snapStore struct {
	published atomic.Pointer[snapGen]
	spare     []*snapGen
	// fresh counts generations allocated because no spare was recyclable
	// (first rounds, or a reader pinning every spare) — the observability
	// hook for the zero-alloc steady-state contract.
	fresh atomic.Int64
}

// writable returns a generation the writer may mutate, recycling a retired
// spare when possible and allocating (counted) otherwise.
func (s *snapStore) writable(hosts int) *snapGen {
	for i, g := range s.spare {
		if g.readers.Load() == 0 {
			last := len(s.spare) - 1
			s.spare[i] = s.spare[last]
			s.spare[last] = nil
			s.spare = s.spare[:last]
			return g
		}
	}
	s.fresh.Add(1)
	return &snapGen{snap: Snapshot{
		Predicted: make(map[string]float64, hosts),
		Latest:    make(map[string]Reading, hosts),
	}}
}

// publish swaps g in as the published generation and retires the previous
// one into the spare ring.
func (s *snapStore) publish(g *snapGen) {
	if old := s.published.Swap(g); old != nil {
		s.spare = append(s.spare, old)
	}
}

// ViewSnapshot runs read against the latest published snapshot without
// copying it — the one way to read one. The *Snapshot (including its maps
// and slices) is valid only for the duration of the call and must be treated
// as read-only: retaining or mutating any part of it is a data race with
// later rounds; copy out what has to outlive the call.
func (c *Controller) ViewSnapshot(read func(*Snapshot)) {
	g := c.snaps.acquire()
	if g == nil {
		read(&Snapshot{})
		return
	}
	// Deferred so a panicking callback (recovered by an HTTP server, say)
	// still releases the generation instead of pinning it forever.
	defer g.readers.Add(-1)
	read(&g.snap)
}

// acquire pins the published generation for a read (readers incremented,
// pointer re-validated); the caller must decrement.
func (s *snapStore) acquire() *snapGen {
	for {
		g := s.published.Load()
		if g == nil {
			return nil
		}
		g.readers.Add(1)
		if s.published.Load() == g {
			return g
		}
		g.readers.Add(-1)
	}
}

// SnapshotGenerations reports how many snapshot generations were freshly
// allocated (rather than recycled) since the controller was built. A warm
// fleet plateaus at 2, plus one for each reader a round found still inside
// its ViewSnapshot callback.
func (c *Controller) SnapshotGenerations() int64 { return c.snaps.fresh.Load() }

// publishedSnapshot is the writer-side borrow: callers must hold c.mu, which
// excludes the only code (writable) that could recycle a retired generation
// — the published one is immutable to everybody.
func (c *Controller) publishedSnapshot() *Snapshot {
	if g := c.snaps.published.Load(); g != nil {
		return &g.snap
	}
	return nil
}

// sortHotspots orders the round's hotspots by descending margin, ties
// broken by host id — the published determinism contract (matching
// cluster.SortHotspots) — without allocating. Host ids are unique, so the
// comparator is a total order and any sort yields the same result.
func sortHotspots(out []Hotspot) {
	slices.SortFunc(out, func(a, b Hotspot) int {
		if a.MarginC != b.MarginC {
			if a.MarginC > b.MarginC {
				return -1
			}
			return 1
		}
		return strings.Compare(a.HostID, b.HostID)
	})
}

// rewritePredicted makes m hold exactly one temperature per non-stale
// prediction, writing each entry once. Lingering keys (membership shrank or
// hosts went stale since this generation was last written) show as a size
// mismatch and force one clear-and-refill pass; map buckets survive clear,
// so neither path allocates once the map has capacity.
func rewritePredicted(m map[string]float64, preds []Prediction) {
	fill := func() (n int) {
		for i := range preds {
			if p := &preds[i]; !p.Stale {
				m[p.HostID] = p.TempC
				n++
			}
		}
		return n
	}
	if fill() != len(m) {
		clear(m)
		fill()
	}
}

// rewriteLatest mirrors rewritePredicted for the latest-reading map, filled
// from the host table's slots.
func rewriteLatest(m map[string]Reading, order []string, slots []engine.Slot) {
	fill := func() (n int) {
		for i := range slots {
			if s := &slots[i]; s.Present {
				m[order[i]] = s.Reading
				n++
			}
		}
		return n
	}
	if fill() != len(m) {
		clear(m)
		fill()
	}
}
