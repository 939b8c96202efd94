//go:build amd64 && !noasm

package svm

import "vmtherm/internal/cpufeat"

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

// rbfBlocksAVX512 is rbfBlocksAVX eight support vectors per vector op, with
// the same contract and the same bits. It reads the lane-major matrix
// (flatSVs: per block of eight support vectors, dim rows of eight values),
// so lane i of a block accumulates support vector i's distance in
// rbfBlocksAVX's order; it writes the 4·blocks distances in support-vector
// order and nothing past them, and adds each block's two halves of four
// terms, low half first, as rbfBlocksAVX adds two consecutive blocks. When
// blocks is odd the last 8-block holds four of them: its other lanes are
// masked out of the store, the range check and the sum. rbfBlocksAVX stays
// beside it for CPUs with AVX2 but not AVX-512.
//
//go:noescape
func rbfBlocksAVX512(lanes, x, coef *float64, dim, blocks int, gamma float64, dists *float64) (sum float64, ok bool)

// wss2AVX runs wss2Scalar over k < n, n a positive multiple of 4, from no
// picks, and leaves the up half's lanes in out[0] and the down half's in
// out[1]. gu and gd point at the two halves of the gradient, au and ad at
// those of alpha.
//
//go:noescape
func wss2AVX(gu, gd, au, ad, diag, ri *float64, n int, gmax, qi, s2, c float64, out *[2]lanes)

// stepAVX runs stepScalar over k < n, n a positive multiple of 4, from
// empty scans, and leaves the lanes of the up half's gmax and gmin in
// out[0] and out[1] and the down half's in out[2] and out[3].
//
//go:noescape
func stepAVX(gu, gd, au, ad, ri, rj *float64, n int, ci, cj, c float64, out *[4]lanes)

// useAVX reports whether the AVX2 kernels, RBF and SMO, may run (the CPU
// and the OS support AVX2 and FMA), and useAVX512 whether the 8-lane RBF
// routine and SMO passes may (AVX512F and AVX512DQ beside them). Both are
// cpufeat's probe; tests clear useAVX512 to force the 4-lane routine on
// models flattened afterwards.
var useAVX, useAVX512 = cpufeat.AVX2FMA, cpufeat.AVX512

// expNegLanes holds expNeg's constants replicated across the four lanes of
// a ymm register, in the order dist_amd64.s indexes them.
var expNegLanes = func() (t [8][4]float64) {
	for i, c := range [...]float64{expNegMax, expNegInvStep, expNegStep, 1.0 / 120, 1.0 / 24, 1.0 / 6, 0.5, 1} {
		t[i] = [4]float64{c, c, c, c}
	}
	return t
}()

// wss2AVX512 is the filter of WSS2's scan for j over k < n, n a positive
// multiple of 8: it writes to est[:2n] a lower-precision gain estimate per
// variable and appends to surv[:n] the up variables k, and to surv[n:2n]
// the down variables l+k (as k), that the exact picks must visit: those
// whose estimate is within a factor 1 − 2^-10 of their half's largest, or
// cannot be trusted. Both lists are in increasing order.
//
//go:noescape
func wss2AVX512(gu, gd, au, ad, diag, ri, est *float64, n int, gmax, qi, s2, c float64, surv *int) (nUp, nDn int)

// stepAVX512 runs stepScalar over k < n, n a positive multiple of 8, from
// empty scans, and leaves the up half's scan in out[0] and the down half's
// in out[1].
//
//go:noescape
func stepAVX512(gu, gd, au, ad, ri, rj *float64, n int, ci, cj, c float64, out *[2]violators)
