//go:build amd64 && !noasm

package svm

// Implemented in dist_amd64.s.
func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)

// rbfBlocksAVX evaluates Σ coef[k]·e^(-gamma·||sv_k - x||²) over the first
// 4·blocks support vectors of flat (row-major, stride dim): the squared
// distances go to dists[:4·blocks], then expNeg's arithmetic runs four
// lanes at a time and the terms are summed in predictRowRBF's order. ok is
// false when some gamma·distance is outside expNeg's fast range [0, 708]
// (NaN included); sum is then meaningless but the distances are valid, and
// the caller finishes the row with scalar expNeg. dim and blocks must be
// positive and gamma finite and positive.
//
//go:noescape
func rbfBlocksAVX(flat, x, coef *float64, dim, blocks int, gamma float64, dists *float64) (sum float64, ok bool)

// useAVX reports whether the vectorized RBF kernel may run: the CPU must
// support AVX2 and FMA, and the OS must save ymm state on context switch
// (OSXSAVE + XCR0 bits 1-2).
var useAVX = func() bool {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, c, _ := cpuid(1, 0)
	const (
		fmaBit     = 1 << 12
		osxsaveBit = 1 << 27
		avxBit     = 1 << 28
	)
	if c&osxsaveBit == 0 || c&avxBit == 0 || c&fmaBit == 0 {
		return false
	}
	if eax, _ := xgetbv(); eax&6 != 6 {
		return false
	}
	_, b, _, _ := cpuid(7, 0)
	return b&(1<<5) != 0 // AVX2
}()

// expNegLanes holds expNeg's constants replicated across the four lanes of
// a ymm register, in the order dist_amd64.s indexes them.
var expNegLanes = func() (t [8][4]float64) {
	for i, c := range [...]float64{expNegMax, expNegInvStep, expNegStep, 1.0 / 120, 1.0 / 24, 1.0 / 6, 0.5, 1} {
		t[i] = [4]float64{c, c, c, c}
	}
	return t
}()
