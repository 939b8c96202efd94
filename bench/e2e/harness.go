package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"
)

// blocks is how many equal blocks the timed phase is cut into; the reference
// kernel runs before the first and after every one.
const blocks = 48

// runner is one benchmark workload bound to its fixture.
type runner interface {
	// step generates the inputs of op i, runs it through h.op (and any
	// product work that belongs to the block but not to the op through
	// h.aux), and checks the outputs.
	step(h *harness, i int) error
	// finish runs the end-of-run output checks and returns pred_mse_c2.
	finish(h *harness) float64
}

// phase is the record of one timed phase: a fixed number of ops in equal
// blocks, each bracketed by two reference-kernel runs.
type phase struct {
	perBlock int
	opNs     []int64          // raw op time, in op order (block = index / perBlock)
	workNs   [blocks]int64    // raw op + aux time per block
	stepNs   [blocks]int64    // raw wall time per block, generator and checks included
	refNs    [blocks][2]int64 // the reference run before and after each block
	cur      int

	// Allocator and collector activity inside the blocks.
	allocBytes, mallocs, gcPauseNs uint64
	gcCycles                       uint32
}

// harness times ops, counts failures and, in the traced phase, records
// spans and layer samples.
type harness struct {
	ph     *phase
	tr     *tracer // nil outside the traced phase
	refDiv int     // shortens the reference kernel (sizing.refDivisor)

	dig               digest
	attempted, failed int64
	failMsgs          []string

	opSpan int // span of the op in flight (traced phase)
}

// op times one benchmark operation.
func (h *harness) op(fn func() error) error {
	start := time.Now()
	err := fn()
	d := time.Since(start)
	h.ph.opNs = append(h.ph.opNs, int64(d))
	h.ph.workNs[h.ph.cur] += int64(d)
	if h.tr != nil {
		h.opSpan = h.tr.span("op", -1, len(h.ph.opNs)-1, start, d)
	}
	return err
}

// aux times product work that is part of the block's throughput but not of
// any op's latency: round boundaries, VM retirement.
func (h *harness) aux(name string, fn func() error) error {
	start := time.Now()
	err := fn()
	d := time.Since(start)
	h.ph.workNs[h.ph.cur] += int64(d)
	if h.tr != nil {
		h.tr.sample(name, -1, len(h.ph.opNs)-1, h.ph.cur, start, d, 1)
	}
	return err
}

// units counts n attempted units of work, bad of which failed the checks.
func (h *harness) units(n, bad int, format string, args ...any) {
	h.attempted += int64(n)
	if bad > 0 {
		h.failed += int64(bad)
		if len(h.failMsgs) < 8 {
			h.failMsgs = append(h.failMsgs, fmt.Sprintf(format, args...))
		}
	}
}

// begin opens a timed phase of blocks × perBlock ops.
func (h *harness) begin(perBlock int) {
	h.ph = &phase{perBlock: perBlock, opNs: make([]int64, 0, blocks*perBlock)}
	runtime.GC()
}

// block runs block b of the phase. before is the reference run that just
// ended (the previous block's closing one); the block's own closing
// reference run is returned for the next block to use.
func (h *harness) block(w runner, b int, before time.Duration) (time.Duration, error) {
	ph := h.ph
	ph.cur = b
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for k := 0; k < ph.perBlock; k++ {
		if err := w.step(h, b*ph.perBlock+k); err != nil {
			return 0, fmt.Errorf("op %d: %w", b*ph.perBlock+k, err)
		}
	}
	ph.stepNs[b] = int64(time.Since(start))
	runtime.ReadMemStats(&m1)
	ph.allocBytes += m1.TotalAlloc - m0.TotalAlloc
	ph.mallocs += m1.Mallocs - m0.Mallocs
	ph.gcPauseNs += m1.PauseTotalNs - m0.PauseTotalNs
	ph.gcCycles += m1.NumGC - m0.NumGC
	after := timeCalib(h.refDiv)
	ph.refNs[b] = [2]int64{int64(before), int64(after)}
	return after, nil
}

// run executes a whole timed phase on its own.
func (h *harness) run(w runner, perBlock int) (*phase, error) {
	h.begin(perBlock)
	ref := timeCalib(h.refDiv)
	for b := 0; b < blocks; b++ {
		var err error
		if ref, err = h.block(w, b, ref); err != nil {
			return nil, err
		}
	}
	return h.ph, nil
}

// factor is block b's speed factor.
func (ph *phase) factor(b int) float64 {
	return speedFactor(time.Duration(ph.refNs[b][0]), time.Duration(ph.refNs[b][1]))
}

// opMs returns every op's time in ms, ascending; calibrated unless raw.
func (ph *phase) opMs(raw bool) []float64 {
	out := make([]float64, len(ph.opNs))
	for i, ns := range ph.opNs {
		f := 1.0
		if !raw {
			f = ph.factor(i / ph.perBlock)
		}
		out[i] = float64(ns) / 1e6 * f
	}
	sort.Float64s(out)
	return out
}

// blockS returns the median block work time in seconds; calibrated unless
// raw.
func (ph *phase) blockS(raw bool) float64 {
	out := make([]float64, blocks)
	for b := range out {
		f := 1.0
		if !raw {
			f = ph.factor(b)
		}
		out[b] = float64(ph.workNs[b]) / 1e9 * f
	}
	return median(out)
}

// refMs returns the reference-kernel times in ms, ascending.
func (ph *phase) refMs() []float64 {
	out := []float64{float64(ph.refNs[0][0]) / 1e6}
	for _, pair := range ph.refNs {
		out = append(out, float64(pair[1])/1e6)
	}
	sort.Float64s(out)
	return out
}

// blockP50 returns every block's median calibrated op time in ms.
func (ph *phase) blockP50() []float64 {
	out := make([]float64, blocks)
	for b := range out {
		ops := make([]float64, ph.perBlock)
		for k := range ops {
			ops[k] = float64(ph.opNs[b*ph.perBlock+k]) / 1e6 * ph.factor(b)
		}
		out[b] = median(ops)
	}
	return out
}

// genUsPerOp is the harness's own share of the timed phase per op: input
// generation, output checks and quality bookkeeping.
func (ph *phase) genUsPerOp() float64 {
	var step, work int64
	for b := 0; b < blocks; b++ {
		step += ph.stepNs[b]
		work += ph.workNs[b]
	}
	return float64(step-work) / 1e3 / float64(len(ph.opNs))
}
