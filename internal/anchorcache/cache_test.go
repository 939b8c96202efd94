package anchorcache

import (
	"math"
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
