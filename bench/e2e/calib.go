package main

import (
	"math"
	"sort"
	"strconv"
	"time"
)

// The reference kernel. This sandbox's host runs in discrete speed states
// that last seconds to minutes and differ by tens of percent (NOISE.md), so
// every gated time is divided by how long this fixed piece of work took right
// before and right after it. A float-arithmetic kernel alone tracks those
// states poorly — the product's code slows by a third where a divide loop
// slows by a fifth — so the kernel is a fixed mix of the kinds of work the
// product does, in the proportions that left the least run-to-run spread over
// 30 instrumented runs of the five workloads: dependent loads across 4 MiB,
// string-keyed map lookups, sorting floats, and formatting and parsing
// numbers, at about 1 : 2 : 2 : 1 of its time. It allocates nothing and
// writes only its own scratch. It must never change once baselines exist:
// its checksum is pinned by TestCalibChecksum.
const (
	calibNominalS = 0.058 // what one calib(1) takes between blocks on the machine the bounds were set on

	chaseSteps = 290_000
	mapSweeps  = 390
	sortRounds = 6
	numRounds  = 49_000

	calibHosts = 4096
	sortLen    = 1 << 15
)

// xorshift is a fixed, platform-independent generator for the kernel's data.
type xorshift uint64

func (x *xorshift) next() uint64 {
	v := uint64(*x)
	v ^= v << 13
	v ^= v >> 7
	v ^= v << 17
	*x = xorshift(v)
	return v
}

var (
	// chaseNext is one random cycle through 4 MiB of int32: every load
	// depends on the one before and misses L1.
	chaseNext = func() []int32 {
		const n = 4 << 20 / 4
		rng := xorshift(2016)
		perm := make([]int32, n)
		for i := range perm {
			perm[i] = int32(i)
		}
		for i := n - 1; i > 0; i-- {
			j := int(rng.next() % uint64(i+1))
			perm[i], perm[j] = perm[j], perm[i]
		}
		next := make([]int32, n)
		for i, at := range perm {
			next[at] = perm[(i+1)%n]
		}
		return next
	}()
	calibKeys = hostIDs(calibHosts, 128)
	calibMap  = func() map[string]float64 {
		m := make(map[string]float64, calibHosts)
		for i, k := range calibKeys {
			m[k] = float64(i)
		}
		return m
	}()
	sortSrc = func() []float64 {
		rng := xorshift(7)
		s := make([]float64, sortLen)
		for i := range s {
			s[i] = float64(rng.next()>>11) / (1 << 53)
		}
		return s
	}()
	sortBuf = make([]float64, sortLen)
	numBuf  = make([]byte, 0, 32)
)

// calib runs the reference kernel, its loop counts divided by div, and
// returns a checksum of everything it computed.
func calib(div int) float64 {
	var sum float64
	at := int32(0)
	for i := 0; i < chaseSteps/div; i++ {
		at = chaseNext[at]
	}
	sum += float64(at)
	for r := 0; r < max(mapSweeps/div, 1); r++ {
		for _, k := range calibKeys {
			sum += calibMap[k]
		}
	}
	buf := sortBuf[:sortLen/div]
	for r := 0; r < max(sortRounds/div, 1); r++ {
		copy(buf, sortSrc)
		sort.Float64s(buf)
		sum += buf[r]
	}
	for i := 0; i < numRounds/div; i++ {
		b := strconv.AppendFloat(numBuf[:0], sortSrc[i%sortLen]*97.3, 'g', -1, 64)
		v, _ := strconv.ParseFloat(string(b), 64)
		sum += v
	}
	return sum
}

var calibSink float64

// timeCalib runs the reference kernel once and returns how long it took; div
// shortens it on the smoke fixtures, where the times are not used.
func timeCalib(div int) time.Duration {
	start := time.Now()
	calibSink = calib(div)
	return time.Since(start)
}

// speedFactor converts a wall time measured between two reference runs into
// calibrated time: wall × factor. It is 1 on a machine where calib(1) takes
// calibNominalS, below 1 when the host ran slow.
func speedFactor(before, after time.Duration) float64 {
	mean := (before.Seconds() + after.Seconds()) / 2
	return calibNominalS / mean
}

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of an
// ascending slice: the smallest element with at least p·n elements at or
// below it.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(p*float64(len(sorted)))) - 1
	idx = max(0, min(idx, len(sorted)-1))
	return sorted[idx]
}

// median sorts a copy of xs and returns its nearest-rank median.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentile(s, 0.5)
}

// quartiles returns Q1, Q2, Q3 of xs as Python's
// statistics.quantiles(xs, n=4) computes them (the "exclusive" method), the
// rule the acceptance driver applies to run-to-run spread.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	at := func(i int) float64 {
		j := max(1, min(i*(n+1)/4, n-1))
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}
