package anchorcache

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// refUint64 is FNV-1a over x's eight bytes, low first, one step per byte:
// the definition Hash.Uint64 must keep.
func refUint64(h Hash, x uint64) Hash {
	v := uint64(h)
	for i := 0; i < 8; i++ {
		v ^= x & 0xff
		v *= fnvPrime64
		x >>= 8
	}
	return Hash(v)
}

// TestHashUint64MatchesByteLoop: folding the zero high bytes in one multiply
// gives the byte loop's value, on the edges of every byte count and on 1e5
// random values skewed toward the small ones bucket indices are, from the
// offset basis and from random accumulators.
func TestHashUint64MatchesByteLoop(t *testing.T) {
	xs := []uint64{0, 1, 0xff, 0x100, 0xff00, 1 << 56, math.MaxUint64}
	for b := 1; b < 8; b++ {
		xs = append(xs, 1<<(8*b)-1, 1<<(8*b))
	}
	rng := rand.New(rand.NewSource(51))
	for len(xs) < 100_000+20 {
		xs = append(xs, rng.Uint64()>>rng.Intn(65)) // a shift of 64 gives 0
	}
	for i, x := range xs {
		h := NewHash()
		if i%2 == 1 {
			h = Hash(rng.Uint64())
		}
		if got, want := h.Uint64(x), refUint64(h, x); got != want {
			t.Fatalf("Hash(%#x).Uint64(%#x) = %#x, byte loop %#x", uint64(h), x, uint64(got), uint64(want))
		}
	}
}

// TestLookupCountedOncePerPass: a cache driven with Lookup and one Count per
// pass holds the entries and the counters of a twin driven with Get, at
// every pass boundary, across promotions and rotations.
func TestLookupCountedOncePerPass(t *testing.T) {
	get, err := New(Config{MaxEntries: 64})
	if err != nil {
		t.Fatal(err)
	}
	look, err := New(Config{MaxEntries: 64})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	var rotated bool
	for pass := 0; pass < 200; pass++ {
		var hits, misses int
		for i := 0; i < 40; i++ {
			k := NewHash().Uint64(uint64(rng.Intn(90))).Key()
			gv, gok := get.Get(k)
			lv, lok := look.Lookup(k)
			if gv != lv || gok != lok {
				t.Fatalf("pass %d: Get = %v, %v; Lookup = %v, %v", pass, gv, gok, lv, lok)
			}
			if lok {
				hits++
				continue
			}
			misses++
			get.Put(k, float64(pass))
			look.Put(k, float64(pass))
		}
		look.Count(hits, misses)
		if g, l := get.Stats(), look.Stats(); g != l {
			t.Fatalf("pass %d: Get stats %+v, Lookup+Count stats %+v", pass, g, l)
		}
		gc, gp := get.DumpGenerations()
		lc, lp := look.DumpGenerations()
		if !reflect.DeepEqual(gc, lc) || !reflect.DeepEqual(gp, lp) {
			t.Fatalf("pass %d: generations differ", pass)
		}
		rotated = rotated || get.Stats().Evicted > 0
	}
	if !rotated {
		t.Fatal("no rotation: promotion across generations went untested")
	}
}

// BenchmarkAnchorKeyLookup measures the anchor layer's per-host share of a
// warm source-driven round: quantize one host's (util, memFrac) into its
// key, then look the key up, over a 4,096-host population whose buckets are
// all cached. ns/op is per host.
func BenchmarkAnchorKeyLookup(b *testing.B) {
	const hosts = 4096
	c, err := New(Config{})
	if err != nil {
		b.Fatal(err)
	}
	q := c.Quant()
	utils, mems := make([]float64, hosts), make([]float64, hosts)
	for i := range utils {
		utils[i] = 0.2 + 0.6*float64((i*13)%97)/97
		mems[i] = 0.3 + 0.4*float64(i%11)/11
		k, _, _ := q.UtilMem(utils[i], mems[i])
		c.Put(k, float64(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := i % hosts
		k, _, _ := q.UtilMem(utils[h], mems[h])
		if _, ok := c.Lookup(k); !ok {
			b.Fatal("miss")
		}
	}
}
