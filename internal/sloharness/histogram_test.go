package sloharness

import (
	"math/rand"
	"sort"
	"testing"
	"time"
)

// oracle returns the exact quantile of samples the way the histogram
// defines it: the sample at 0-based rank ⌊p·(n−1)⌋ of the sorted slice.
func oracle(samples []time.Duration, p float64) time.Duration {
	sorted := append([]time.Duration(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return sorted[int(p*float64(len(sorted)-1))]
}

// drawSamples generates one of several latency shapes: uniform, bimodal
// (fast path + slow tail), exponential-ish heavy tail, and constant.
func drawSamples(r *rand.Rand, shape, n int, span time.Duration) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		switch shape {
		case 0: // uniform
			out[i] = time.Duration(r.Int63n(int64(span)))
		case 1: // bimodal: 90% fast, 10% ~10× slower
			if r.Float64() < 0.9 {
				out[i] = time.Duration(r.Int63n(int64(span / 10)))
			} else {
				out[i] = span/2 + time.Duration(r.Int63n(int64(span/2)))
			}
		case 2: // heavy tail
			d := time.Duration(float64(span) / 20 * r.ExpFloat64())
			if d > 2*span {
				d = 2 * span // may overflow the bucket range on purpose
			}
			out[i] = d
		default: // constant
			out[i] = span / 3
		}
	}
	return out
}

// TestQuantileMatchesOracle is the property test the tentpole requires:
// across shapes, sizes and quantiles, the histogram answer is within one
// bucket width above the sorted-slice oracle (never below it), except for
// overflowed samples where the histogram answers the exact max.
func TestQuantileMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	width := 50 * time.Microsecond
	buckets := 2000 // covers [0, 100ms)
	span := 80 * time.Millisecond
	quantiles := []float64{0.01, 0.25, 0.50, 0.90, 0.95, 0.99, 0.999, 1.0}

	for shape := 0; shape < 4; shape++ {
		for _, n := range []int{1, 2, 17, 500, 20000} {
			samples := drawSamples(r, shape, n, span)
			h := NewHistogram(width, buckets)
			for _, s := range samples {
				h.Record(s)
			}
			for _, p := range quantiles {
				got := h.Quantile(p)
				want := oracle(samples, p)
				if want >= time.Duration(buckets)*width {
					// Overflowed rank: the histogram reports its exact max,
					// an upper bound on the true quantile.
					if got != h.Max() {
						t.Fatalf("shape=%d n=%d p=%v: overflow rank answered %v, want max %v", shape, n, p, got, h.Max())
					}
					continue
				}
				if got < want || got-want > width {
					t.Fatalf("shape=%d n=%d p=%v: histogram %v vs oracle %v (width %v)", shape, n, p, got, want, width)
				}
			}
		}
	}
}

func TestQuantileMonotone(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	h := NewHistogram(100*time.Microsecond, 1000)
	for _, s := range drawSamples(r, 2, 5000, 40*time.Millisecond) {
		h.Record(s)
	}
	prev := time.Duration(-1)
	for p := 0.0; p <= 1.0; p += 0.001 {
		q := h.Quantile(p)
		if q < prev {
			t.Fatalf("quantile not monotone: Q(%v)=%v < previous %v", p, q, prev)
		}
		prev = q
	}
}

func TestHistogramMergeEquivalentToSingle(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	samples := drawSamples(r, 1, 4096, 20*time.Millisecond)
	single := NewHistogram(50*time.Microsecond, 1000)
	parts := []*Histogram{
		NewHistogram(50*time.Microsecond, 1000),
		NewHistogram(50*time.Microsecond, 1000),
		NewHistogram(50*time.Microsecond, 1000),
	}
	for i, s := range samples {
		single.Record(s)
		parts[i%len(parts)].Record(s)
	}
	merged := parts[0]
	merged.Merge(parts[1])
	merged.Merge(parts[2])
	if merged.Count() != single.Count() || merged.Max() != single.Max() {
		t.Fatalf("merge lost samples: count %d vs %d, max %v vs %v",
			merged.Count(), single.Count(), merged.Max(), single.Max())
	}
	for _, p := range []float64{0, 0.5, 0.9, 0.99, 1} {
		if merged.Quantile(p) != single.Quantile(p) {
			t.Fatalf("p%v: merged %v != single %v", p*100, merged.Quantile(p), single.Quantile(p))
		}
	}
}

func TestHistogramEmptyAndBounds(t *testing.T) {
	h := NewHistogram(time.Millisecond, 10)
	if h.Quantile(0.99) != 0 {
		t.Fatal("empty histogram must answer 0")
	}
	h.Record(-5 * time.Millisecond) // clamps to bucket 0
	h.Record(500 * time.Millisecond)
	if h.Count() != 2 {
		t.Fatalf("count %d, want 2", h.Count())
	}
	if h.Quantile(1) != 500*time.Millisecond {
		t.Fatalf("overflowed max quantile %v, want exact 500ms", h.Quantile(1))
	}
}

// TestRecordZeroAlloc pins the zero-alloc hot path.
func TestRecordZeroAlloc(t *testing.T) {
	h := NewHistogram(50*time.Microsecond, 1000)
	allocs := testing.AllocsPerRun(1000, func() {
		h.Record(3 * time.Millisecond)
	})
	if allocs != 0 {
		t.Fatalf("Record allocates %v/op, want 0", allocs)
	}
}
