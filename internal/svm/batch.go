package svm

import (
	"fmt"
	"math"
	"sync"
)

// Prediction. Every entry point — Predict, PredictBatch, the serving loops —
// evaluates through PredictBatchInto, so there is one ψ_stable kernel and a
// row reads the same bits whichever route it took. The support vectors are
// flattened once into a contiguous row-major matrix and each row is one pass
// over it; Kernel.Eval serves the solver.
//
// On amd64 with AVX2 and FMA (useAVX, detected by CPUID) that pass is a
// single assembly routine: squared distances for a block of support
// vectors, expNeg's table-driven exponential across the block, the
// coefficient multiply and the ordered sum. Where the CPU also has AVX512F
// and AVX512DQ (useAVX512) the routine is rbfBlocksAVX512, eight support
// vectors per vector op over a lane-major copy of the matrix (per block of
// eight support vectors, one row of eight values per feature, so each lane
// accumulates one support vector and needs no horizontal reduction).
// Otherwise it is rbfBlocksAVX, four per op over the row-major matrix. The
// two are one arithmetic at two widths — the same per-lane distance order,
// (a0+a2)+(a1+a3) over feature residues mod 4, the same exponential, and
// the terms added four at a time, blocks in order — so they return the same
// bits, and RBFKernelName does not tell them apart. The 4-lane routine stays
// for AVX2-only CPUs. Either covers the whole blocks of four support
// vectors; the last nsv%4 take the portable path, which is also the only
// path on other hardware, under the noasm build tag, and for a model whose
// gamma is not finite and positive: sqDistsGeneric (four SVs per pass with
// independent accumulators) and scalar expNeg. A row with any lane outside
// expNeg's fast range — NaN, or gamma·distance above 708 — keeps the
// routine's distances and finishes on scalar expNeg. The vector and scalar
// exponentials are the same operations in the same order, so which one
// served a lane never shows in the result; fused_test.go pins both widths to
// a pure-Go reference bit for bit.
//
// PredictBatchInto is the allocation-free spine — flat row-major input,
// caller-owned output and scratch — that steady-state serving loops (the
// fleet anchor fan-out, the prediction service's batch endpoints) pump every
// round without generating garbage. Predict and PredictBatch are the
// convenience wrappers that allocate their scratch and result.

// flatSVs returns the support vectors as one contiguous row-major matrix
// and, where rbfBlocksAVX512 may serve the model, lane-major: per block of
// eight support vectors, Dim rows of eight values, the last block padded
// with zeros (nil otherwise). Both are built and cached on first use.
// Callers must not mutate SV after prediction has started.
func (m *Model) flatSVs() (flat, lanes []float64) {
	m.flatOnce.Do(func() {
		dim := m.Dim
		m.flatSV = make([]float64, len(m.SV)*dim)
		for i, sv := range m.SV {
			copy(m.flatSV[i*dim:(i+1)*dim], sv)
		}
		if useAVX512 && m.fusedRBF() {
			m.laneSV = make([]float64, (len(m.SV)+7)&^7*dim)
			for i, sv := range m.SV {
				block := m.laneSV[i&^7*dim:]
				for j, v := range sv {
					block[8*j+i&7] = v
				}
			}
		}
	})
	return m.flatSV, m.laneSV
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
// vectors (flatSVs) using the caller's distance buffer. With fused set (see
// fusedRBF) the leading whole blocks of four support vectors go through one
// call of rbfBlocksAVX512 where the lane-major matrix exists, of
// rbfBlocksAVX otherwise; everything the call does not cover — the last
// nsv%4 support vectors, or the whole row without it — takes sqDistsGeneric
// and scalar expNeg, summed in the same order.
func (m *Model) predictRowRBF(flat, lanes, x, dists []float64, fused bool) float64 {
	gamma, dim, nsv := m.Kernel.Gamma, m.Dim, len(dists)
	// The kernels read through bare pointers; these reslices are their
	// bounds checks.
	flat, x, coef := flat[:nsv*dim], x[:dim], m.Coef[:nsv]
	var sum float64
	k, vec := 0, 0 // SVs already in sum; SVs whose distance the kernel wrote
	if blocks := nsv / 4; fused && blocks > 0 {
		vec = 4 * blocks
		var s float64
		var ok bool
		if lanes != nil {
			lanes = lanes[:(vec+7)&^7*dim]
			s, ok = rbfBlocksAVX512(&lanes[0], &x[0], &coef[0], dim, blocks, gamma, &dists[0])
		} else {
			s, ok = rbfBlocksAVX(&flat[0], &x[0], &coef[0], dim, blocks, gamma, &dists[0])
		}
		if ok {
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

// RBFKernelName names the RBF prediction arithmetic this process runs:
// "avx2-fused" or "generic". The first names both vector routines, which
// return the same bits at eight lanes and at four. The two arithmetics
// agree to the last few bits, not bit for bit, so a score computed from
// predictions (a cross-validated MSE) is reproducible only on the same
// kernel.
func RBFKernelName() string {
	if useAVX {
		return "avx2-fused"
	}
	return "generic"
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
	flat, lanes := m.flatSVs()
	dists := scratch.grow(len(m.SV))
	fused := m.fusedRBF()
	for i := 0; i < n; i++ {
		out[i] = m.predictRowRBF(flat, lanes, xs[i*m.Dim:(i+1)*m.Dim], dists, fused)
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

// batchCache holds the lazily built flattened support-vector matrices.
type batchCache struct {
	flatOnce sync.Once
	flatSV   []float64
	laneSV   []float64
}
