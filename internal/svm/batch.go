package svm

import (
	"fmt"
	"math"
	"sync"
)

// Prediction. Every entry point — Predict, PredictBatch, the serving loops —
// evaluates through PredictBatchInto, so there is one ψ_stable kernel and a
// row reads the same bits whichever route it took. For RBF the support
// vectors are flattened once into a contiguous row-major matrix and each row
// is one pass over it; Kernel.Eval serves the solver and the other kernels.
//
// On amd64 with AVX2 and FMA (useAVX, detected by CPUID) that pass is a
// single assembly routine, rbfBlocksAVX: squared distances for four
// support vectors at a time, expNeg's table-driven exponential four lanes
// at a time, the coefficient multiply and the ordered sum. It covers the
// whole blocks of four support vectors; the last nsv%4 take the portable
// path, which is also the only path on other hardware, under the noasm
// build tag, and for a model whose gamma is not finite and positive:
// sqDistsGeneric (four SVs per pass with independent accumulators) and
// scalar expNeg. A row with any lane outside expNeg's fast range — NaN, or
// gamma·distance above 708 — keeps the routine's distances and finishes on
// scalar expNeg. The vector and scalar exponentials are the same
// operations in the same order, so which one served a lane never shows in
// the result; fused_test.go pins the routine to a pure-Go reference bit for
// bit.
//
// PredictBatchInto is the allocation-free spine — flat row-major input,
// caller-owned output and scratch — that steady-state serving loops (the
// fleet anchor fan-out, the prediction service's batch endpoints) pump every
// round without generating garbage. Predict and PredictBatch are the
// convenience wrappers that allocate their scratch and result.

// flatSVs returns the support vectors as one contiguous row-major matrix,
// building and caching it on first use. Callers must not mutate SV after
// prediction has started.
func (m *Model) flatSVs() []float64 {
	m.flatOnce.Do(func() {
		flat := make([]float64, len(m.SV)*m.Dim)
		for i, sv := range m.SV {
			copy(flat[i*m.Dim:(i+1)*m.Dim], sv)
		}
		m.flatSV = flat
	})
	return m.flatSV
}

// BatchScratch holds the reusable working memory of PredictBatchInto. The
// zero value is ready to use; buffers grow to the model's support-vector
// count on first use and are reused afterwards, so a long-lived scratch
// makes repeated batch predictions allocation-free. A scratch must not be
// shared between concurrent calls.
type BatchScratch struct {
	dists []float64
}

// grow returns the scratch's distance buffer resized to n support vectors.
func (s *BatchScratch) grow(n int) []float64 {
	if cap(s.dists) < n {
		s.dists = make([]float64, n)
	}
	s.dists = s.dists[:n]
	return s.dists
}

// predictRowRBF evaluates one pre-scaled row against the flattened support
// vectors using the caller's distance buffer. With fused set (see
// fusedRBF) the leading whole blocks of four support vectors go through
// rbfBlocksAVX in one call; everything it does not cover — the last nsv%4
// support vectors, or the whole row without it — takes sqDistsGeneric and
// scalar expNeg, summed in the same order.
func (m *Model) predictRowRBF(flat, x, dists []float64, fused bool) float64 {
	gamma, dim, nsv := m.Kernel.Gamma, m.Dim, len(dists)
	// The kernel reads through bare pointers; these reslices are its
	// bounds checks.
	flat, x, coef := flat[:nsv*dim], x[:dim], m.Coef[:nsv]
	var sum float64
	k, vec := 0, 0 // SVs already in sum; SVs whose distance the kernel wrote
	if blocks := nsv / 4; fused && blocks > 0 {
		vec = 4 * blocks
		if s, ok := rbfBlocksAVX(&flat[0], &x[0], &coef[0], dim, blocks, gamma, &dists[0]); ok {
			sum, k = s, vec
		}
		// !ok: some lane is outside expNeg's fast range; the distances
		// are in place and the loops below finish the row lane by lane.
	}
	sqDistsGeneric(flat[vec*dim:], dim, x, dists[vec:])
	// The conversions round each product before it is added, so a compiler
	// that may fuse x*y+z sums the bits the unfused vector kernel does.
	for ; k+4 <= nsv; k += 4 {
		sum += float64(coef[k]*expNeg(gamma*dists[k])) +
			float64(coef[k+1]*expNeg(gamma*dists[k+1])) +
			float64(coef[k+2]*expNeg(gamma*dists[k+2])) +
			float64(coef[k+3]*expNeg(gamma*dists[k+3]))
	}
	for ; k < nsv; k++ {
		sum += float64(coef[k] * expNeg(gamma*dists[k]))
	}
	return sum - m.Rho
}

// fusedRBF reports whether rows of this model may take the AVX2 kernel: the
// CPU has it, there is at least one feature to load, and gamma is finite
// and positive, so gamma·distance is never negative and the kernel's range
// check (NaN or > 708) is the only way out of expNeg's fast path.
func (m *Model) fusedRBF() bool {
	g := m.Kernel.Gamma
	return useAVX && m.Dim > 0 && g > 0 && g <= math.MaxFloat64
}

// PredictBatchInto evaluates the model on len(out) rows stored row-major in
// xs (len(xs) must be len(out)·Dim) and writes one prediction per row into
// out. Rows must already be in the model's feature space (scaled). With a
// warm scratch the call allocates nothing; it is safe to run concurrently
// as long as each call has its own scratch.
func (m *Model) PredictBatchInto(xs []float64, out []float64, scratch *BatchScratch) error {
	n := len(out)
	if len(xs) != n*m.Dim {
		return fmt.Errorf("svm: flat batch of %d values is not %d rows × %d features", len(xs), n, m.Dim)
	}
	if n == 0 {
		return nil
	}
	if m.Kernel.Type != RBF {
		// Non-RBF kernels are dot-product shaped and not exp-bound; the
		// generic path is already close to memory-bandwidth-bound.
		for i := range out {
			x := xs[i*m.Dim : (i+1)*m.Dim]
			var sum float64
			for k, sv := range m.SV {
				sum += m.Coef[k] * m.Kernel.Eval(sv, x)
			}
			out[i] = sum - m.Rho
		}
		return nil
	}
	flat := m.flatSVs()
	dists := scratch.grow(len(m.SV))
	fused := m.fusedRBF()
	for i := 0; i < n; i++ {
		out[i] = m.predictRowRBF(flat, xs[i*m.Dim:(i+1)*m.Dim], dists, fused)
	}
	return nil
}

// PredictBatch evaluates the model on every row of xs, returning one
// prediction per row: the rows flattened into PredictBatchInto. Serving
// loops that run batches every round should call PredictBatchInto with a
// reused scratch instead.
func (m *Model) PredictBatch(xs [][]float64) ([]float64, error) {
	flat := make([]float64, 0, len(xs)*m.Dim)
	for i, x := range xs {
		if len(x) != m.Dim {
			return nil, fmt.Errorf("svm: batch row %d has %d features, model wants %d", i, len(x), m.Dim)
		}
		flat = append(flat, x...)
	}
	out := make([]float64, len(xs))
	return out, m.PredictBatchInto(flat, out, new(BatchScratch))
}

// sqDistsGeneric writes ||sv_k - x||^2 for every support-vector row of flat
// (row-major, stride dim) into dists. Four rows are processed per pass with
// independent accumulators so the FP adds pipeline instead of serializing.
// Each square is rounded before it is added (the conversions), whatever the
// compiler may fuse, so every build of this path produces the same bits.
func sqDistsGeneric(flat []float64, dim int, x, dists []float64) {
	n := len(dists)
	xs := x[:dim:dim]
	k := 0
	for ; k+4 <= n; k += 4 {
		base := k * dim
		sv0 := flat[base : base+dim : base+dim]
		sv1 := flat[base+dim : base+2*dim : base+2*dim]
		sv2 := flat[base+2*dim : base+3*dim : base+3*dim]
		sv3 := flat[base+3*dim : base+4*dim : base+4*dim]
		var d0, d1, d2, d3 float64
		for j := 0; j < dim; j++ {
			xv := xs[j]
			t0 := sv0[j] - xv
			t1 := sv1[j] - xv
			t2 := sv2[j] - xv
			t3 := sv3[j] - xv
			d0 += float64(t0 * t0)
			d1 += float64(t1 * t1)
			d2 += float64(t2 * t2)
			d3 += float64(t3 * t3)
		}
		dists[k] = d0
		dists[k+1] = d1
		dists[k+2] = d2
		dists[k+3] = d3
	}
	for ; k < n; k++ {
		sv := flat[k*dim : (k+1)*dim : (k+1)*dim]
		var d float64
		for j := 0; j < dim; j++ {
			t := sv[j] - xs[j]
			d += float64(t * t)
		}
		dists[k] = d
	}
}

// batchCache holds the lazily built flattened support-vector matrix.
type batchCache struct {
	flatOnce sync.Once
	flatSV   []float64
}
