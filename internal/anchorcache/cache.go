// Package anchorcache memoizes ψ_stable anchor predictions behind the fleet
// control plane. Every control round re-anchors its per-host dynamic
// sessions against a batch ψ_stable prediction of the host's current
// deployment (Eqs. 1–2), but a host's anchor inputs barely move between
// rounds: observed (util, memFrac) drifts by fractions of a percent, and a
// simulated deployment changes only on placement or migration. Quantizing
// those inputs into buckets and memoizing the model's answer per bucket
// turns the per-round anchor fan-out — the dominant control-plane cost at
// fleet scale — into a handful of cache misses.
//
// The quantization step is the correctness contract: a cached anchor is the
// model's exact prediction for the bucket's center, so cached-vs-exact
// divergence is bounded by the model's sensitivity times half a bucket
// width. Bucket widths default well under the engine's re-anchor threshold
// (engine.ReanchorEpsC), so cache error can never trigger a spurious re-anchor.
//
// The cache is bounded (two-generation rotation, oldest generation dropped
// wholesale) and carries an epoch: Invalidate discards every entry when the
// model or its configuration changes underneath the keys. Each generation is
// an open-addressed table sized by the largest population it has held: a
// rotation clears the dropped generation's table and reuses it as the young
// one, so a cache whose tables have reached the working set allocates
// nothing, and a lookup searches at most ~2.7 slots per entry its generation
// has ever held rather than a table pre-sized for MaxEntries.
package anchorcache

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync/atomic"
)

// Key identifies one quantized anchor input: a bucketed (util, memFrac,
// ambient) observation or a deployment fingerprint composed with Hash.
type Key uint64

// FNV-1a parameters.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// Hash is an incremental FNV-1a accumulator for composing cache keys from
// deployment state (VM ids, quantized buckets) without allocating.
type Hash uint64

// NewHash returns the FNV-1a offset basis.
func NewHash() Hash { return fnvOffset64 }

// String folds a string into the hash.
func (h Hash) String(s string) Hash {
	v := uint64(h)
	for i := 0; i < len(s); i++ {
		v ^= uint64(s[i])
		v *= fnvPrime64
	}
	// A separator byte keeps concatenated ids from colliding ("ab"+"c" vs
	// "a"+"bc").
	v ^= 0xff
	v *= fnvPrime64
	return Hash(v)
}

// fnvPrimePow[k] is fnvPrime64^k mod 2^64: k FNV-1a steps over zero bytes,
// which xor nothing in, are one multiply by it.
var fnvPrimePow = func() (p [9]uint64) {
	p[0] = 1
	for k := 1; k < len(p); k++ {
		p[k] = p[k-1] * fnvPrime64
	}
	return p
}()

// Uint64 folds an integer (e.g. a bucket index) into the hash, eight bytes
// low first. Once the bytes left are all zero they fold in one multiply, so
// a one-byte bucket index costs two multiplies instead of eight.
func (h Hash) Uint64(x uint64) Hash {
	v := uint64(h)
	for i := 0; i < 8; i++ {
		if x == 0 {
			return Hash(v * fnvPrimePow[8-i])
		}
		v ^= x & 0xff
		v *= fnvPrime64
		x >>= 8
	}
	return Hash(v)
}

// Key finalizes the accumulator.
func (h Hash) Key() Key { return Key(h) }

// Quantizer maps continuous anchor inputs onto bucket indices and bucket
// centers. The zero value takes defaults via withDefaults; Config embeds it.
type Quantizer struct {
	// UtilQuant is the CPU-utilization bucket width (default 0.01: 1% of
	// host capacity — ψ_stable moves tens of °C across the full range, so a
	// bucket bounds cache error well under engine.ReanchorEpsC, 1 °C).
	UtilQuant float64
	// MemQuant is the memory-activity bucket width (default 0.02; ψ_stable
	// is far less sensitive to memory than to CPU).
	MemQuant float64
	// AmbientQuantC is the ambient/inlet bucket width in °C (default 0.25;
	// ψ_stable tracks ambient roughly 1:1, so this bounds the ambient share
	// of cache error at ~0.125 °C).
	AmbientQuantC float64
}

// DefaultQuantizer returns the default bucket widths.
func DefaultQuantizer() Quantizer {
	return Quantizer{UtilQuant: 0.01, MemQuant: 0.02, AmbientQuantC: 0.25}
}

func (q Quantizer) withDefaults() Quantizer {
	d := DefaultQuantizer()
	if q.UtilQuant <= 0 {
		q.UtilQuant = d.UtilQuant
	}
	if q.MemQuant <= 0 {
		q.MemQuant = d.MemQuant
	}
	if q.AmbientQuantC <= 0 {
		q.AmbientQuantC = d.AmbientQuantC
	}
	return q
}

// bucket returns v's bucket index for width w.
func bucket(v, w float64) uint64 {
	return uint64(int64(math.Floor(v / w)))
}

// center returns the center value of v's bucket of width w.
func center(v, w float64) float64 {
	return (math.Floor(v/w) + 0.5) * w
}

// UtilMem quantizes an observed (util, memFrac) pair, returning the cache
// key and the bucket-center values the anchor case should be synthesized
// from — predicting at the center halves the worst-case divergence.
func (q Quantizer) UtilMem(util, memFrac float64) (key Key, qUtil, qMem float64) {
	bu, bm := q.UtilMemBuckets(util, memFrac)
	k := NewHash().Uint64(bu).Uint64(bm)
	return k.Key(), center(util, q.UtilQuant), center(memFrac, q.MemQuant)
}

// UtilMemBuckets returns the raw bucket indices of a (util, memFrac) pair,
// for folding into a larger fingerprint (e.g. a simulated deployment hash).
func (q Quantizer) UtilMemBuckets(util, memFrac float64) (u, m uint64) {
	return bucket(util, q.UtilQuant), bucket(memFrac, q.MemQuant)
}

// UtilBucket returns the bucket index of one utilization-scaled value (a
// task fraction, a per-VM vCPU demand) at the UtilQuant width — the
// fingerprint ingredient for load *distribution*, which moves features like
// task_cpu_max without necessarily moving total host utilization.
func (q Quantizer) UtilBucket(v float64) uint64 {
	return bucket(v, q.UtilQuant)
}

// Ambient quantizes an ambient/inlet temperature, returning its bucket index
// (to fold into a fingerprint) and the bucket center to predict at.
func (q Quantizer) Ambient(tempC float64) (idx uint64, centerC float64) {
	return bucket(tempC, q.AmbientQuantC), center(tempC, q.AmbientQuantC)
}

// Stats are the cache's cumulative counters. Safe to read concurrently with
// cache operations.
type Stats struct {
	Hits, Misses int64
	// Evicted counts entries dropped at the size bound (whole-generation
	// rotation) — the capacity-pressure signal for sizing MaxEntries.
	// Invalidations counts the epoch bumps that cleared everything; entries
	// cleared by Invalidate are not added to Evicted.
	Evicted       int64
	Invalidations int64
}

// Config parameterizes a Cache.
type Config struct {
	// MaxEntries bounds the total entry count across both generations
	// (default 65536). The cache never exceeds it; reaching it drops the
	// older half wholesale.
	MaxEntries int
	// Quant sets the bucket widths keys are derived with.
	Quant Quantizer
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.MaxEntries < 2 {
		return fmt.Errorf("anchorcache: max entries %d < 2", c.MaxEntries)
	}
	return nil
}

// Cache is a bounded memo of quantized anchor key → ψ_stable. It keeps two
// generations: inserts go to the young one, and when the young generation
// fills half the budget the old one is dropped and the generations rotate —
// O(1) amortized eviction that retains the working set without per-entry
// bookkeeping (hits migrate entries back into the young generation).
//
// Get, Lookup, Put and Invalidate require external synchronization (the
// fleet controller calls them under its round lock); Stats and Epoch may be
// read concurrently (the /metrics exposition does).
type Cache struct {
	quant Quantizer
	half  int // per-generation entry budget
	cur   table
	prev  table

	hits, misses, evicted, invalidations atomic.Int64
	epoch                                atomic.Int64
}

// New builds a cache. Zero-valued Config fields take defaults.
func New(cfg Config) (*Cache, error) {
	if cfg.MaxEntries == 0 {
		cfg.MaxEntries = 65536
	}
	cfg.Quant = cfg.Quant.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Cache{
		quant: cfg.Quant,
		half:  cfg.MaxEntries / 2,
		cur:   newTable(),
		prev:  newTable(),
	}, nil
}

// Quant returns the quantizer keys are derived with.
func (c *Cache) Quant() Quantizer { return c.quant }

// Get looks a key up, counting a hit or a miss. Entries found in the old
// generation are promoted so rotation keeps the live working set.
func (c *Cache) Get(k Key) (float64, bool) {
	v, ok := c.Lookup(k)
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return v, ok
}

// Lookup is Get without the counting: a pass that looks many keys up adds
// its hits and misses once, with Count, instead of one atomic add per key.
func (c *Cache) Lookup(k Key) (float64, bool) {
	if v, ok := c.cur.get(k); ok {
		return v, true
	}
	if v, ok := c.prev.get(k); ok {
		c.promote(k, v)
		return v, true
	}
	return 0, false
}

// Count adds a pass's Lookup hits and misses to the cumulative counters.
func (c *Cache) Count(hits, misses int) {
	c.hits.Add(int64(hits))
	c.misses.Add(int64(misses))
}

// Put inserts or refreshes an entry, rotating generations at the bound.
func (c *Cache) Put(k Key, v float64) {
	c.promote(k, v)
}

// promote writes into the young generation, rotating when it is full. The
// old-generation copy of the key is removed so no key is ever resident in
// both generations — which keeps Len and the eviction counter exact (a
// rotation drops precisely prev.n live entries). A rotation clears the
// dropped generation's table and reuses it as the young one, so once both
// tables have grown to the working set a rotation allocates nothing.
func (c *Cache) promote(k Key, v float64) {
	if c.cur.n >= c.half && !c.cur.has(k) {
		drop := c.prev.n
		if c.prev.has(k) {
			drop-- // k is about to be re-inserted, not dropped
		}
		c.evicted.Add(int64(drop))
		c.cur, c.prev = c.prev, c.cur
		c.cur.reset()
	}
	c.cur.put(k, v)
	c.prev.remove(k)
}

// Invalidate drops every entry and bumps the epoch — required whenever the
// model or the feature configuration behind the cached predictions changes.
// Cleared entries are accounted by the Invalidations counter, not Evicted:
// Evicted measures capacity pressure only, so an operator sizing MaxEntries
// from the eviction rate is not misled by epoch bumps.
func (c *Cache) Invalidate() {
	c.cur.reset()
	c.prev.reset()
	c.invalidations.Add(1)
	c.epoch.Add(1)
}

// Len reports the current entry count across both generations.
func (c *Cache) Len() int { return c.cur.n + c.prev.n }

// Epoch reports how many invalidations the cache has seen.
func (c *Cache) Epoch() int64 { return c.epoch.Load() }

// Stats returns the cumulative counters.
func (c *Cache) Stats() Stats {
	return Stats{
		Hits:          c.hits.Load(),
		Misses:        c.misses.Load(),
		Evicted:       c.evicted.Load(),
		Invalidations: c.invalidations.Load(),
	}
}

// Entry is one key → ψ_stable pair, the unit of generation dump/restore.
type Entry struct {
	Key   Key
	Value float64
}

// DumpGenerations returns the young and old generations separately, each
// sorted by key. Restoring both sides (RestoreGenerations) reproduces the
// cache bit-for-bit — including future rotation and eviction timing, which
// reloading everything young would not. The cache has no file format of its
// own: the dump travels inside a checkpoint (checkpoint.CacheState).
// Requires external synchronization, like Get/Put.
func (c *Cache) DumpGenerations() (cur, prev []Entry) {
	return c.cur.entries(), c.prev.entries()
}

// RestoreGenerations replaces the cache contents with the dumped
// generations, preserving the young/old split. Counter state is restored
// separately (RestoreStats). Requires external synchronization.
func (c *Cache) RestoreGenerations(cur, prev []Entry) error {
	if len(cur) > c.half || len(prev) > c.half {
		return fmt.Errorf("anchorcache: restore of %d+%d entries exceeds per-generation budget %d",
			len(cur), len(prev), c.half)
	}
	c.cur.reset()
	c.prev.reset()
	for _, e := range cur {
		if math.IsNaN(e.Value) {
			continue
		}
		c.cur.put(e.Key, e.Value)
	}
	for _, e := range prev {
		if math.IsNaN(e.Value) || c.cur.has(e.Key) {
			continue // no key may be resident in both generations
		}
		c.prev.put(e.Key, e.Value)
	}
	return nil
}

// RestoreStats overwrites the cumulative counters and the epoch — the
// checkpoint path uses it so restored fleets report continuous totals
// (RoundReport's AnchorEvictedTotal, the /metrics counters) instead of
// restarting from zero.
func (c *Cache) RestoreStats(st Stats, epoch int64) {
	c.hits.Store(st.Hits)
	c.misses.Store(st.Misses)
	c.evicted.Store(st.Evicted)
	c.invalidations.Store(st.Invalidations)
	c.epoch.Store(epoch)
}

// table is one generation: an open-addressed table of Entry slots probed
// linearly from a multiplicative spread of the key. An empty slot holds Key
// 0, so the zero key itself lives beside the slots. The slot count is a
// power of two that doubles at ¾ load and never shrinks: a table is sized
// by the largest population it has held.
type table struct {
	slots   []Entry
	shift   uint // 64 − log2(len(slots))
	n       int  // live entries, the zero key included
	hasZero bool
	zero    float64
}

// minSlots is a new table's slot count.
const minSlots = 8

func newTable() table {
	return table{slots: make([]Entry, minSlots), shift: 64 - 3}
}

// home is the first slot probed for k. Keys are FNV-1a hashes already; the
// Fibonacci multiplier spreads their bits into the top ones the shift keeps.
func (t *table) home(k Key) int {
	return int((uint64(k) * 0x9e3779b97f4a7c15) >> t.shift)
}

// find returns k's slot, or the empty slot that ends its probe run.
func (t *table) find(k Key) int {
	mask := len(t.slots) - 1
	i := t.home(k)
	for t.slots[i].Key != k && t.slots[i].Key != 0 {
		i = (i + 1) & mask
	}
	return i
}

func (t *table) get(k Key) (float64, bool) {
	if k == 0 {
		return t.zero, t.hasZero
	}
	s := &t.slots[t.find(k)]
	return s.Value, s.Key == k
}

func (t *table) has(k Key) bool {
	_, ok := t.get(k)
	return ok
}

// put inserts or overwrites k.
func (t *table) put(k Key, v float64) {
	if k == 0 {
		if !t.hasZero {
			t.hasZero = true
			t.n++
		}
		t.zero = v
		return
	}
	i := t.find(k)
	if t.slots[i].Key == k {
		t.slots[i].Value = v
		return
	}
	if 4*(t.n+1) > 3*len(t.slots) {
		t.grow()
		i = t.find(k)
	}
	t.slots[i] = Entry{Key: k, Value: v}
	t.n++
}

// grow doubles the slot count and re-inserts every entry.
func (t *table) grow() {
	old := t.slots
	t.slots = make([]Entry, 2*len(old))
	t.shift--
	for _, e := range old {
		if e.Key != 0 {
			t.slots[t.find(e.Key)] = e
		}
	}
}

// remove deletes k by backward shift: each later entry of the probe run
// that may legally sit in the hole moves into it, so no run is ever broken
// and no tombstone is ever left.
func (t *table) remove(k Key) {
	if k == 0 {
		if t.hasZero {
			t.hasZero, t.zero = false, 0
			t.n--
		}
		return
	}
	i := t.find(k)
	if t.slots[i].Key != k {
		return
	}
	mask := len(t.slots) - 1
	for j := (i + 1) & mask; t.slots[j].Key != 0; j = (j + 1) & mask {
		// The entry at j may fill hole i unless its home lies cyclically
		// after i, in (i, j]: it must stay reachable from its home.
		if (j-t.home(t.slots[j].Key))&mask >= (j-i)&mask {
			t.slots[i] = t.slots[j]
			i = j
		}
	}
	t.slots[i] = Entry{}
	t.n--
}

// reset empties the table, keeping its slots.
func (t *table) reset() {
	clear(t.slots)
	t.n, t.hasZero, t.zero = 0, false, 0
}

// entries returns the live entries sorted by key.
func (t *table) entries() []Entry {
	out := make([]Entry, 0, t.n)
	if t.hasZero {
		out = append(out, Entry{Value: t.zero})
	}
	for _, e := range t.slots {
		if e.Key != 0 {
			out = append(out, e)
		}
	}
	slices.SortFunc(out, func(a, b Entry) int { return cmp.Compare(a.Key, b.Key) })
	return out
}
