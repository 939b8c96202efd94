// Package sloharness is a closed-loop, SLO-driven serving-capacity profiler
// for the vmtherm HTTP endpoints. Modeled on the vHive profiling loader, it
// steps the offered request rate up through warm-up → measure → cool-down
// phases, records latency into a fixed-bucket histogram, and reports the
// maximum RPS the target sustains without violating a declared tail-latency
// SLO (e.g. p99 ≤ 5 ms) — turning "fast as the hardware allows" into a
// measured, regression-gated number per endpoint × knob combination.
package sloharness

import "time"

// Histogram is a fixed-bucket latency histogram. Bucket i covers
// [i·Width, (i+1)·Width); samples at or beyond Buckets·Width land in an
// overflow bucket that additionally tracks the exact maximum. Record is
// allocation-free, so per-sender histograms can sit on the measurement hot
// path; Merge combines them after a step.
//
// Quantile is exact to within one bucket width against a sorted-slice
// oracle (property-tested): both pick the sample at 0-based rank
// ⌊p·(n−1)⌋, the histogram just answers with its bucket's upper edge.
type Histogram struct {
	width    time.Duration
	buckets  []uint64
	count    uint64
	overflow uint64
	max      time.Duration
}

// DefaultHistWidth and DefaultHistBuckets cover [0, 2 s) at 100 µs
// resolution — comfortably finer than any SLO limit worth declaring for an
// in-memory prediction service, in 160 KiB per sender.
const (
	DefaultHistWidth   = 100 * time.Microsecond
	DefaultHistBuckets = 20000
)

// NewHistogram creates a histogram with n buckets of the given width.
func NewHistogram(width time.Duration, n int) *Histogram {
	if width <= 0 {
		width = DefaultHistWidth
	}
	if n <= 0 {
		n = DefaultHistBuckets
	}
	return &Histogram{width: width, buckets: make([]uint64, n)}
}

// Record adds one latency sample. Negative samples count as zero.
func (h *Histogram) Record(d time.Duration) {
	if d < 0 {
		d = 0
	}
	if d > h.max {
		h.max = d
	}
	idx := int(d / h.width)
	if idx >= len(h.buckets) {
		h.overflow++
	} else {
		h.buckets[idx]++
	}
	h.count++
}

// Merge folds o into h. Both must share width and bucket count.
func (h *Histogram) Merge(o *Histogram) {
	for i, c := range o.buckets {
		h.buckets[i] += c
	}
	h.overflow += o.overflow
	h.count += o.count
	if o.max > h.max {
		h.max = o.max
	}
}

// Count reports recorded samples.
func (h *Histogram) Count() uint64 { return h.count }

// Max reports the largest recorded sample exactly.
func (h *Histogram) Max() time.Duration { return h.max }

// Quantile returns the latency at quantile p ∈ [0, 1] as the upper edge of
// the bucket holding the sample at 0-based rank ⌊p·(n−1)⌋ — the same rank a
// sorted-slice oracle indexes, so the answer exceeds the oracle's by less
// than one bucket width and never undershoots it. Samples that overflowed
// the bucket range answer with the exact recorded maximum. An empty
// histogram answers 0.
func (h *Histogram) Quantile(p float64) time.Duration {
	if h.count == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	rank := uint64(p * float64(h.count-1)) // 0-based index into the sorted samples
	var cum uint64
	for i, c := range h.buckets {
		cum += c
		if cum > rank {
			return time.Duration(i+1) * h.width
		}
	}
	return h.max
}
