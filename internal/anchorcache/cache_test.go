package anchorcache

import (
	"cmp"
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"
)

func TestGetPutHitMiss(t *testing.T) {
	c, err := New(Config{MaxEntries: 8})
	if err != nil {
		t.Fatal(err)
	}
	k, _, _ := c.Quant().UtilMem(0.5, 0.25)
	if _, ok := c.Get(k); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put(k, 42.5)
	v, ok := c.Get(k)
	if !ok || v != 42.5 {
		t.Fatalf("Get = %v, %v; want 42.5, true", v, ok)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss", st)
	}
}

func TestQuantizationSharesBuckets(t *testing.T) {
	q := DefaultQuantizer()
	// Two observations inside the same 1% utilization bucket must map to
	// the same key and the same bucket center.
	k1, u1, m1 := q.UtilMem(0.501, 0.30)
	k2, u2, m2 := q.UtilMem(0.509, 0.30)
	if k1 != k2 || u1 != u2 || m1 != m2 {
		t.Fatalf("same-bucket observations diverged: %v/%v vs %v/%v", k1, u1, k2, u2)
	}
	// Across the bucket boundary they must not.
	k3, _, _ := q.UtilMem(0.511, 0.30)
	if k1 == k3 {
		t.Fatal("distinct buckets collided")
	}
	// And the center must be within half a bucket of any member.
	if d := u1 - 0.501; d > q.UtilQuant/2+1e-12 || d < -q.UtilQuant/2-1e-12 {
		t.Fatalf("bucket center %v more than half a bucket from member 0.501", u1)
	}
}

func TestNegativeAndZeroInputsQuantize(t *testing.T) {
	q := DefaultQuantizer()
	k0, u0, _ := q.UtilMem(0, 0)
	k1, _, _ := q.UtilMem(0.0001, 0)
	if k0 != k1 {
		t.Fatal("near-zero observations split buckets")
	}
	if u0 != q.UtilQuant/2 {
		t.Fatalf("zero-bucket center = %v, want %v", u0, q.UtilQuant/2)
	}
	// Ambient below zero still buckets consistently.
	b1, c1 := q.Ambient(-1.05)
	b2, c2 := q.Ambient(-1.05 - q.AmbientQuantC/4)
	if b1 != b2 || c1 != c2 {
		t.Fatalf("negative ambient bucketing inconsistent: %v/%v vs %v/%v", b1, c1, b2, c2)
	}
}

func TestBoundedEviction(t *testing.T) {
	const max = 16
	c, err := New(Config{MaxEntries: max})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10*max; i++ {
		c.Put(NewHash().Uint64(uint64(i)).Key(), float64(i))
		if c.Len() > max {
			t.Fatalf("cache grew to %d entries, bound %d", c.Len(), max)
		}
	}
	if st := c.Stats(); st.Evicted == 0 {
		t.Fatal("no evictions counted after overfilling")
	}
}

func TestHitPromotionSurvivesRotation(t *testing.T) {
	c, err := New(Config{MaxEntries: 8}) // generations of 4
	if err != nil {
		t.Fatal(err)
	}
	hot := NewHash().String("hot").Key()
	c.Put(hot, 1)
	// Fill and rotate several times, touching the hot key each round.
	for i := 0; i < 40; i++ {
		c.Put(NewHash().Uint64(uint64(i)).Key(), float64(i))
		if _, ok := c.Get(hot); !ok {
			t.Fatalf("hot key evicted after %d inserts despite constant hits", i+1)
		}
	}
}

func TestPromotionRemovesOldGenerationCopy(t *testing.T) {
	c, err := New(Config{MaxEntries: 8}) // generations of 4
	if err != nil {
		t.Fatal(err)
	}
	hot := NewHash().String("hot").Key()
	c.Put(hot, 1)
	// Force at least one rotation so the hot key lands in the old
	// generation, then hit it: promotion must move — not copy — it, so the
	// entry count stays exact and a later rotation cannot count a
	// still-resident key as evicted.
	for i := 0; i < 5; i++ {
		c.Put(NewHash().Uint64(uint64(i)).Key(), float64(i))
	}
	before := c.Len()
	if _, ok := c.Get(hot); !ok {
		t.Fatal("hot key evicted prematurely")
	}
	if c.Len() != before {
		t.Fatalf("promotion changed entry count %d -> %d (dual residency)", before, c.Len())
	}
}

// TestDumpRestoreGenerations pins the only way a cache leaves and re-enters
// memory (inside a checkpoint): the generation split round-trips exactly, a
// NaN anchor is never admitted, no key ends up resident twice, and a dump too
// large for the receiving cache is refused whole rather than truncated.
func TestDumpRestoreGenerations(t *testing.T) {
	src, err := New(Config{MaxEntries: 8}) // generations of 4
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 7; i++ {
		src.Put(Key(i), float64(i)+0.5)
	}
	cur, prev := src.DumpGenerations()
	if len(cur) == 0 || len(prev) == 0 {
		t.Fatalf("dump %d/%d does not span both generations", len(cur), len(prev))
	}

	dst, err := New(Config{MaxEntries: 8})
	if err != nil {
		t.Fatal(err)
	}
	dst.Put(99, 1) // a restore replaces, it does not merge
	if err := dst.RestoreGenerations(cur, prev); err != nil {
		t.Fatal(err)
	}
	gotCur, gotPrev := dst.DumpGenerations()
	if !slices.Equal(gotCur, cur) || !slices.Equal(gotPrev, prev) {
		t.Fatalf("restored %v/%v, dumped %v/%v", gotCur, gotPrev, cur, prev)
	}

	// NaN values and a key offered in both generations.
	dirtyCur := []Entry{{Key: 1, Value: 10}, {Key: 2, Value: math.NaN()}}
	dirtyPrev := []Entry{{Key: 1, Value: 20}, {Key: 3, Value: math.NaN()}, {Key: 4, Value: 40}}
	if err := dst.RestoreGenerations(dirtyCur, dirtyPrev); err != nil {
		t.Fatal(err)
	}
	gotCur, gotPrev = dst.DumpGenerations()
	if !slices.Equal(gotCur, []Entry{{Key: 1, Value: 10}}) || !slices.Equal(gotPrev, []Entry{{Key: 4, Value: 40}}) {
		t.Fatalf("dirty restore admitted %v/%v", gotCur, gotPrev)
	}

	// Five entries do not fit a generation of four: refused, nothing changed.
	if err := dst.RestoreGenerations(append(cur, prev...)[:5], nil); err == nil {
		t.Fatal("over-budget restore accepted")
	}
	if again, _ := dst.DumpGenerations(); !slices.Equal(again, gotCur) || dst.Len() > 8 {
		t.Fatalf("refused restore changed the cache: %v (len %d)", again, dst.Len())
	}
}

func TestInvalidate(t *testing.T) {
	c, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	k := NewHash().String("x").Key()
	c.Put(k, 7)
	c.Invalidate()
	if c.Len() != 0 {
		t.Fatalf("len %d after invalidate", c.Len())
	}
	if _, ok := c.Get(k); ok {
		t.Fatal("hit after invalidate")
	}
	if c.Epoch() != 1 || c.Stats().Invalidations != 1 {
		t.Fatalf("epoch/invalidations = %d/%d, want 1/1", c.Epoch(), c.Stats().Invalidations)
	}
}

func TestHashSeparatorPreventsConcatCollisions(t *testing.T) {
	a := NewHash().String("ab").String("c").Key()
	b := NewHash().String("a").String("bc").Key()
	if a == b {
		t.Fatal("concatenation collision")
	}
}

func TestWarmHitPathDoesNotAllocate(t *testing.T) {
	c, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	q := c.Quant()
	key, _, _ := q.UtilMem(0.42, 0.17)
	c.Put(key, 55)
	allocs := testing.AllocsPerRun(1000, func() {
		k, _, _ := q.UtilMem(0.42, 0.17)
		if _, ok := c.Get(k); !ok {
			t.Fatal("miss on warm key")
		}
	})
	if allocs != 0 {
		t.Fatalf("warm hit path allocates %.1f/op, want 0", allocs)
	}
}

// mapCache is the map-based Cache the open-addressed generations replaced,
// kept as the oracle TestCacheMatchesMapOracle replays operations against.
type mapCache struct {
	half      int
	cur, prev map[Key]float64
	st        Stats
	epoch     int64
}

func newMapCache(maxEntries int) *mapCache {
	return &mapCache{half: maxEntries / 2, cur: map[Key]float64{}, prev: map[Key]float64{}}
}

func (c *mapCache) Get(k Key) (float64, bool) {
	if v, ok := c.cur[k]; ok {
		c.st.Hits++
		return v, true
	}
	if v, ok := c.prev[k]; ok {
		c.promote(k, v)
		c.st.Hits++
		return v, true
	}
	c.st.Misses++
	return 0, false
}

func (c *mapCache) Put(k Key, v float64) { c.promote(k, v) }

func (c *mapCache) promote(k Key, v float64) {
	if len(c.cur) >= c.half {
		if _, ok := c.cur[k]; !ok {
			drop := len(c.prev)
			if _, inPrev := c.prev[k]; inPrev {
				drop--
			}
			c.st.Evicted += int64(drop)
			c.prev = c.cur
			c.cur = map[Key]float64{}
		}
	}
	c.cur[k] = v
	delete(c.prev, k)
}

func (c *mapCache) Invalidate() {
	clear(c.cur)
	clear(c.prev)
	c.st.Invalidations++
	c.epoch++
}

func (c *mapCache) Len() int { return len(c.cur) + len(c.prev) }

func (c *mapCache) DumpGenerations() (cur, prev []Entry) {
	dump := func(m map[Key]float64) []Entry {
		out := make([]Entry, 0, len(m))
		for k, v := range m {
			out = append(out, Entry{Key: k, Value: v})
		}
		slices.SortFunc(out, func(a, b Entry) int { return cmp.Compare(a.Key, b.Key) })
		return out
	}
	return dump(c.cur), dump(c.prev)
}

func (c *mapCache) RestoreGenerations(cur, prev []Entry) error {
	if len(cur) > c.half || len(prev) > c.half {
		return errors.New("over budget")
	}
	c.cur, c.prev = map[Key]float64{}, map[Key]float64{}
	for _, e := range cur {
		if !math.IsNaN(e.Value) {
			c.cur[e.Key] = e.Value
		}
	}
	for _, e := range prev {
		if _, dup := c.cur[e.Key]; !dup && !math.IsNaN(e.Value) {
			c.prev[e.Key] = e.Value
		}
	}
	return nil
}

// oracleKeys is the key pool the oracle replay draws from: Key(0), which
// the tables keep beside their slots; runs of keys built to share one home
// slot in a table of any size (the multiplier is odd, so it has an inverse
// mod 2⁶⁴), one of them homed on the last slot so its run wraps to slot 0;
// and unrelated random keys.
func oracleKeys(rng *rand.Rand) []Key {
	mul := uint64(0x9e3779b97f4a7c15)
	inv := mul // Newton's iteration doubles the correct low bits each step
	for i := 0; i < 6; i++ {
		inv *= 2 - mul*inv
	}
	keys := []Key{0}
	for _, top := range []uint64{0x1234 << 48, 0xffff << 48, 0x8000 << 48} {
		for i := uint64(1); i <= 12; i++ {
			keys = append(keys, Key((top|i)*inv))
		}
	}
	for i := 0; i < 40; i++ {
		keys = append(keys, Key(rng.Uint64()))
	}
	return keys
}

// TestCacheMatchesMapOracle replays seeded random Get/Put/Invalidate/
// DumpGenerations/RestoreGenerations sequences on the cache and on the map
// oracle, and requires every result, Len, Stats, Epoch and the full dumped
// state to agree after each operation. Small budgets rotate often; the key
// pool forces long shared probe runs, so promotions delete from inside them.
func TestCacheMatchesMapOracle(t *testing.T) {
	wide := table{shift: 64 - 16}
	if ks := oracleKeys(rand.New(rand.NewSource(1))); wide.home(ks[1]) != wide.home(ks[12]) || wide.home(ks[13]) != 1<<16-1 {
		t.Fatal("the built key runs do not share a home slot")
	}
	for _, maxEntries := range []int{2, 3, 17, 64} {
		for seed := int64(1); seed <= 4; seed++ {
			rng := rand.New(rand.NewSource(seed*100 + int64(maxEntries)))
			keys := oracleKeys(rng)
			c, err := New(Config{MaxEntries: maxEntries})
			if err != nil {
				t.Fatal(err)
			}
			m := newMapCache(maxEntries)
			key := func() Key { return keys[rng.Intn(len(keys))] }
			for op := 0; op < 4000; op++ {
				what := ""
				switch r := rng.Intn(100); {
				case r < 45:
					k := key()
					v, ok := c.Get(k)
					mv, mok := m.Get(k)
					if v != mv || ok != mok {
						t.Fatalf("max %d seed %d op %d: Get(%#x) = %v, %v; oracle %v, %v", maxEntries, seed, op, k, v, ok, mv, mok)
					}
					what = "Get"
				case r < 90:
					k, v := key(), rng.NormFloat64()*20+50
					c.Put(k, v)
					m.Put(k, v)
					what = "Put"
				case r < 92:
					c.Invalidate()
					m.Invalidate()
					what = "Invalidate"
				default:
					cur, prev := m.DumpGenerations()
					if rng.Intn(2) == 0 {
						// Perturb the dump: a NaN, a key in both generations,
						// a duplicate, or one entry over the budget.
						e := Entry{Key: key(), Value: 1}
						switch rng.Intn(4) {
						case 0:
							e.Value = math.NaN()
							cur = append(cur, e)
						case 1:
							cur, prev = append(cur, e), append(prev, Entry{Key: e.Key, Value: 2})
						case 2:
							prev = append(prev, e, Entry{Key: e.Key, Value: 3})
						default:
							for len(cur) <= maxEntries/2 {
								cur = append(cur, Entry{Key: key(), Value: 4})
							}
						}
					}
					err, merr := c.RestoreGenerations(cur, prev), m.RestoreGenerations(cur, prev)
					if (err == nil) != (merr == nil) {
						t.Fatalf("max %d seed %d op %d: RestoreGenerations error %v, oracle %v", maxEntries, seed, op, err, merr)
					}
					what = "RestoreGenerations"
				}
				if c.Len() != m.Len() || c.Stats() != m.st || c.Epoch() != m.epoch {
					t.Fatalf("max %d seed %d op %d (%s): len/stats/epoch %d %+v %d; oracle %d %+v %d",
						maxEntries, seed, op, what, c.Len(), c.Stats(), c.Epoch(), m.Len(), m.st, m.epoch)
				}
				cur, prev := c.DumpGenerations()
				mcur, mprev := m.DumpGenerations()
				if !slices.Equal(cur, mcur) || !slices.Equal(prev, mprev) {
					t.Fatalf("max %d seed %d op %d (%s): generations %v / %v; oracle %v / %v", maxEntries, seed, op, what, cur, prev, mcur, mprev)
				}
			}
		}
	}
}

// TestWarmRotationDoesNotAllocate pins the recycling: once both generations'
// tables have held a full generation, Puts across a rotation allocate
// nothing.
func TestWarmRotationDoesNotAllocate(t *testing.T) {
	const maxEntries = 256
	c, err := New(Config{MaxEntries: maxEntries})
	if err != nil {
		t.Fatal(err)
	}
	next := uint64(0)
	put := func(n int) {
		for i := 0; i < n; i++ {
			next++
			c.Put(NewHash().Uint64(next).Key(), float64(next))
		}
	}
	put(3 * maxEntries) // both tables grown to a full generation
	before := c.Stats().Evicted
	allocs := testing.AllocsPerRun(20, func() { put(maxEntries / 2) })
	if c.Stats().Evicted == before {
		t.Fatal("no rotation during the measured Puts")
	}
	if allocs != 0 {
		t.Fatalf("warm Puts across rotations allocate %.1f per run, want 0", allocs)
	}
}

// BenchmarkCache measures the two operations a control round pays per host:
// Get over a 5,000-key working set at the default budget (the population a
// 4,096-host source-driven fleet keeps live), and Put across rotations at a
// budget the inserts overflow every 512 keys.
func BenchmarkCache(b *testing.B) {
	b.Run("Get5000", func(b *testing.B) {
		c, err := New(Config{})
		if err != nil {
			b.Fatal(err)
		}
		keys := make([]Key, 5000)
		for i := range keys {
			keys[i] = NewHash().Uint64(uint64(i)).Key()
			c.Put(keys[i], float64(i))
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, ok := c.Get(keys[i%len(keys)]); !ok {
				b.Fatal("miss")
			}
		}
	})
	b.Run("PutRotating", func(b *testing.B) {
		c, err := New(Config{MaxEntries: 1024})
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < 4096; i++ {
			c.Put(NewHash().Uint64(uint64(i)).Key(), 1)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Put(NewHash().Uint64(uint64(i+4096)).Key(), 1)
		}
	})
}
