package svm

import (
	"math"
	"math/rand"
	"testing"
)

// TestFusedKernelMatchesGeneric cross-checks the AVX2 kernel against the
// portable path over awkward shapes — dims that are not multiples of the
// vector width, SV counts that are not multiples of the block — at the
// tolerance the two summation orders allow: the distances it leaves in the
// buffer against sqDistsGeneric, and the row value against the row value
// without it. Bit-level agreement with the kernel's own arithmetic is
// TestFusedKernelBitIdentity's job.
func TestFusedKernelMatchesGeneric(t *testing.T) {
	if !useAVX {
		t.Skip("no AVX2 kernel in this build or on this CPU")
	}
	r := rand.New(rand.NewSource(41))
	for _, dim := range []int{1, 2, 3, 4, 5, 7, 8, 13, 16, 19, 32} {
		for _, nsv := range []int{1, 2, 3, 4, 5, 8, 11, 17} {
			m := syntheticRBF(r, nsv, dim, 1/float64(dim))
			flat := m.flatSVs()
			x := randomRows(r, 1, dim)
			want := make([]float64, nsv)
			sqDistsGeneric(flat, dim, x, want)
			if blocks := nsv / 4; blocks > 0 {
				got := make([]float64, nsv)
				rbfBlocksAVX(&flat[0], &x[0], &m.Coef[0], dim, blocks, m.Kernel.Gamma, &got[0])
				for k := range got[:4*blocks] {
					if math.Abs(got[k]-want[k]) > 1e-12*math.Max(1, want[k]) {
						t.Errorf("dim=%d nsv=%d sv %d: distance %v vs generic %v", dim, nsv, k, got[k], want[k])
					}
				}
			}
			dists := make([]float64, nsv)
			got, ref := m.predictRowRBF(flat, x, dists, true), m.predictRowRBF(flat, x, dists, false)
			if math.Abs(got-ref) > 1e-12*math.Max(1, math.Abs(ref)) {
				t.Errorf("dim=%d nsv=%d: row %v vs generic %v", dim, nsv, got, ref)
			}
		}
	}
}

func TestSqDistsGenericValues(t *testing.T) {
	// 2 SVs, dim 3, hand-checked.
	flat := []float64{1, 2, 3, -1, 0, 1}
	x := []float64{0, 2, 4}
	dists := make([]float64, 2)
	sqDistsGeneric(flat, 3, x, dists)
	if dists[0] != 1+0+1 {
		t.Errorf("dists[0] = %v, want 2", dists[0])
	}
	if dists[1] != 1+4+9 {
		t.Errorf("dists[1] = %v, want 14", dists[1])
	}
}
