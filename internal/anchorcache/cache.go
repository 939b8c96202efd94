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
// width. Bucket widths default well under the fleet's re-anchor threshold
// (ReanchorEpsC), so cache error can never trigger a spurious re-anchor.
//
// The cache is bounded (two-generation rotation, oldest generation dropped
// wholesale) and carries an epoch: Invalidate discards every entry when the
// model or its configuration changes underneath the keys.
package anchorcache

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"
)

// Key identifies one quantized anchor input: a bucketed (util, memFrac,
// ambient) observation or a deployment fingerprint composed with Hash.
type Key uint64

// FNV-1a parameters, shared with the session engine's shard hash.
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

// Uint64 folds an integer (e.g. a bucket index) into the hash.
func (h Hash) Uint64(x uint64) Hash {
	v := uint64(h)
	for i := 0; i < 8; i++ {
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
	// bucket bounds cache error well under typical ReanchorEpsC values).
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
// Get, Put and Invalidate require external synchronization (the fleet
// controller calls them under its round lock); Stats and Epoch may be read
// concurrently (the /metrics exposition does).
type Cache struct {
	quant Quantizer
	half  int // per-generation entry budget
	cur   map[Key]float64
	prev  map[Key]float64

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
	half := cfg.MaxEntries / 2
	return &Cache{
		quant: cfg.Quant,
		half:  half,
		cur:   make(map[Key]float64, half),
		prev:  map[Key]float64{},
	}, nil
}

// Quant returns the quantizer keys are derived with.
func (c *Cache) Quant() Quantizer { return c.quant }

// Get looks a key up, counting a hit or a miss. Entries found in the old
// generation are promoted so rotation keeps the live working set.
func (c *Cache) Get(k Key) (float64, bool) {
	if v, ok := c.cur[k]; ok {
		c.hits.Add(1)
		return v, true
	}
	if v, ok := c.prev[k]; ok {
		c.promote(k, v)
		c.hits.Add(1)
		return v, true
	}
	c.misses.Add(1)
	return 0, false
}

// Put inserts or refreshes an entry, rotating generations at the bound.
func (c *Cache) Put(k Key, v float64) {
	c.promote(k, v)
}

// promote writes into the young generation, rotating when it is full. The
// old-generation copy of the key is removed so no key is ever resident in
// both generations — which keeps Len and the eviction counter exact (a
// rotation drops precisely len(prev) live entries).
func (c *Cache) promote(k Key, v float64) {
	if len(c.cur) >= c.half {
		if _, ok := c.cur[k]; !ok {
			drop := len(c.prev)
			if _, inPrev := c.prev[k]; inPrev {
				drop-- // k is about to be re-inserted, not dropped
			}
			c.evicted.Add(int64(drop))
			c.prev = c.cur
			c.cur = make(map[Key]float64, c.half)
		}
	}
	c.cur[k] = v
	delete(c.prev, k)
}

// Invalidate drops every entry and bumps the epoch — required whenever the
// model or the feature configuration behind the cached predictions changes.
// Cleared entries are accounted by the Invalidations counter, not Evicted:
// Evicted measures capacity pressure only, so an operator sizing MaxEntries
// from the eviction rate is not misled by epoch bumps.
func (c *Cache) Invalidate() {
	clear(c.cur)
	clear(c.prev)
	c.invalidations.Add(1)
	c.epoch.Add(1)
}

// Len reports the current entry count across both generations.
func (c *Cache) Len() int { return len(c.cur) + len(c.prev) }

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
	cur = make([]Entry, 0, len(c.cur))
	for k, v := range c.cur {
		cur = append(cur, Entry{Key: k, Value: v})
	}
	prev = make([]Entry, 0, len(c.prev))
	for k, v := range c.prev {
		prev = append(prev, Entry{Key: k, Value: v})
	}
	sortEntries(cur)
	sortEntries(prev)
	return cur, prev
}

// RestoreGenerations replaces the cache contents with the dumped
// generations, preserving the young/old split. Counter state is restored
// separately (RestoreStats). Requires external synchronization.
func (c *Cache) RestoreGenerations(cur, prev []Entry) error {
	if len(cur) > c.half || len(prev) > c.half {
		return fmt.Errorf("anchorcache: restore of %d+%d entries exceeds per-generation budget %d",
			len(cur), len(prev), c.half)
	}
	clear(c.cur)
	c.prev = make(map[Key]float64, c.half)
	for _, e := range cur {
		if math.IsNaN(e.Value) {
			continue
		}
		c.cur[e.Key] = e.Value
	}
	for _, e := range prev {
		if math.IsNaN(e.Value) {
			continue
		}
		if _, dup := c.cur[e.Key]; dup {
			continue // no key may be resident in both generations
		}
		c.prev[e.Key] = e.Value
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

func sortEntries(es []Entry) {
	sort.Slice(es, func(i, j int) bool { return es[i].Key < es[j].Key })
}
