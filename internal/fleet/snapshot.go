package fleet

import (
	"math"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
)

// The snapshot publication path is epoch-versioned and copy-on-read: every
// round the controller fills one snapGen (a generation) and publishes it
// with an atomic pointer swap. Readers borrow the published generation
// without copying anything; the writer recycles a retired generation's
// slices in place once no reader can still observe it, so a warm round's
// publication allocates nothing.
//
// What the round writes is columns parallel to the host table — ids (a
// membership shared by every generation until the table changes), the
// predicted temperature and the latest reading per slot — copied once, in
// order, with no hashing under the round lock, and the hot set in table
// order. Two views over those are built by readers, never by a round, each
// at most once per generation, under the generation's own mutex and outside
// the round lock, into storage recycled with the generation: the legacy
// Predicted and Latest maps, which the first ViewSnapshot fills (fillMaps;
// ViewColumns never does), and the hotspot order, which the first
// Snapshot.Hotspots call builds (hotspots).
//
// Safety protocol (all sync/atomic, hence sequentially consistent):
//
//   - The writer mutates only generations obtained from writable(), which
//     never returns the published generation and skips any retired
//     generation with readers in flight (readers > 0).
//   - A reader (view: ViewSnapshot, ViewColumns) loads the published
//     pointer, increments the generation's reader count, and re-validates
//     that the pointer is still published before touching the data; on
//     failure it decrements and retries. If the writer observed
//     readers == 0 after retiring a generation, any concurrent increment
//     must re-validate after that observation — and the swap that retired
//     the generation precedes the observation, so the re-validation sees a
//     different published pointer and the reader backs off without reading.
//   - Readers write only the maps and the order, only inside fillMaps and
//     hotspots, under fillMu and before setting filled or ordered; the
//     writer clears both flags when it recycles the generation, while no
//     reader holds it. The writer itself reads only what the round wrote
//     (the columns and the hot set), never the order.
type snapGen struct {
	snap Snapshot
	// cols is snap's header without the maps: what ViewColumns lends, set
	// once by publish, so a column borrow copies nothing.
	cols Snapshot
	// readers counts in-flight borrows (ViewSnapshot).
	readers atomic.Int64
	// filled says the maps hold this generation's columns; ordered says
	// order holds its hot set in the published order (orderKeys: scratch).
	fillMu    sync.Mutex
	filled    atomic.Bool
	ordered   atomic.Bool
	order     []Hotspot
	orderKeys []hotKey
}

// membership is the host table's ids as one round published them: ids in
// table order, and byID the table indices in lexicographic id order.
// Generations share it read-only until the table's membership changes.
type membership struct {
	ids  []string
	byID []int32
}

func newMembership(order []string) *membership {
	m := &membership{ids: slices.Clone(order), byID: make([]int32, len(order))}
	for i := range m.byID {
		m.byID[i] = int32(i)
	}
	slices.SortFunc(m.byID, func(a, b int32) int { return strings.Compare(m.ids[a], m.ids[b]) })
	return m
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
			g.filled.Store(false)
			g.ordered.Store(false)
			return g
		}
	}
	s.fresh.Add(1)
	g := &snapGen{snap: Snapshot{
		Predicted: make(map[string]float64, hosts),
		Latest:    make(map[string]Reading, hosts),
	}}
	g.snap.gen = g
	return g
}

// publish swaps g in as the published generation and retires the previous
// one into the spare ring.
func (s *snapStore) publish(g *snapGen) {
	g.cols = g.snap
	g.cols.Predicted, g.cols.Latest = nil, nil
	if old := s.published.Swap(g); old != nil {
		s.spare = append(s.spare, old)
	}
}

// ViewSnapshot runs read against the latest published snapshot without
// copying it. The *Snapshot (including its maps and slices) is valid only
// for the duration of the call and must be treated as read-only: retaining
// or mutating any part of it is a data race with later rounds; copy out
// what has to outlive the call.
func (c *Controller) ViewSnapshot(read func(*Snapshot)) { c.view(read, true) }

// ViewColumns is ViewSnapshot for readers that read no legacy map: the view
// has Predicted and Latest nil, and the borrow fills neither.
func (c *Controller) ViewColumns(read func(*Snapshot)) { c.view(read, false) }

// view lends the published generation to read, filling its maps first or
// handing read the header without them.
func (c *Controller) view(read func(*Snapshot), maps bool) {
	g := c.snaps.acquire()
	if g == nil {
		read(&Snapshot{})
		return
	}
	// Deferred so a panicking callback (recovered by an HTTP server, say)
	// still releases the generation instead of pinning it forever.
	defer g.readers.Add(-1)
	if maps {
		g.fillMaps()
		read(&g.snap)
		return
	}
	read(&g.cols)
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

// publishedSnapshot is the writer-side borrow: callers must hold c.mu, which
// excludes the only code (writable) that could recycle a retired generation
// — the published one's columns are immutable to everybody. Callers read
// the columns only: a reader may be filling the maps.
func (c *Controller) publishedSnapshot() *Snapshot {
	if g := c.snaps.published.Load(); g != nil {
		return &g.snap
	}
	return nil
}

// fillMaps makes the legacy maps hold exactly the generation's columns, at
// most once per generation. Lingering keys (membership shrank or hosts went
// stale since the maps were last filled) show as a size mismatch and force
// one clear-and-refill pass; map buckets survive clear, so a warm fill
// allocates nothing.
func (g *snapGen) fillMaps() {
	if g.filled.Load() {
		return
	}
	g.fillMu.Lock()
	defer g.fillMu.Unlock()
	if g.filled.Load() {
		return
	}
	s := &g.snap
	ids := s.members.ids
	refill(s.Predicted, ids, func(i int) (float64, bool) { return s.pred[i], !math.IsNaN(s.pred[i]) })
	refill(s.Latest, ids, func(i int) (Reading, bool) { return s.latest[i], s.present[i] })
	g.filled.Store(true)
}

// hotspots returns the generation's hot set in the published order, built
// on the first call into storage recycled with the generation (a warm build
// allocates nothing): row j of the hot set is keyed (its margin, j).
func (g *snapGen) hotspots() []Hotspot {
	if g.ordered.Load() {
		return g.order
	}
	g.fillMu.Lock()
	defer g.fillMu.Unlock()
	if g.ordered.Load() {
		return g.order
	}
	hot := g.snap.hot
	keys := g.orderKeys[:0]
	for j := range hot {
		keys = append(keys, hotKey{margin: hot[j].MarginC, i: int32(j)})
	}
	g.order = appendHotspots(g.order[:0], keys, func(j int32) Hotspot { return hot[j] })
	g.orderKeys = keys
	g.ordered.Store(true)
	return g.order
}

// refill writes m[ids[i]] = v for every i where at(i) holds a value v.
func refill[V any](m map[string]V, ids []string, at func(int) (V, bool)) {
	fill := func() (n int) {
		for i, id := range ids {
			if v, ok := at(i); ok {
				m[id] = v
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
