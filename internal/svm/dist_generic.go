//go:build !amd64 || noasm

package svm

// Non-amd64 platforms — and any build with the noasm tag, which CI uses to
// exercise this path on every PR — have no vector kernel: every row takes
// sqDistsGeneric and scalar expNeg, and SMO runs its scalar fused passes
// over every variable.
// useAVX and useAVX512 are variables only so that tests may clear them on
// every build.
var useAVX, useAVX512 = false, false

func rbfBlocksAVX(flat, x, coef *float64, dim, blocks int, gamma float64, dists *float64) (sum float64, ok bool) {
	panic("svm: rbfBlocksAVX called without the AVX2 kernel")
}

func rbfBlocksAVX512(lanes, x, coef *float64, dim, blocks int, gamma float64, dists *float64) (sum float64, ok bool) {
	panic("svm: rbfBlocksAVX512 called without the AVX-512 kernel")
}

func wss2AVX(gu, gd, au, ad, diag, ri *float64, n int, gmax, qi, s2, c float64, out *[2]lanes) {
	panic("svm: wss2AVX called without the AVX2 kernel")
}

func stepAVX(gu, gd, au, ad, ri, rj *float64, n int, ci, cj, c float64, out *[4]lanes) {
	panic("svm: stepAVX called without the AVX2 kernel")
}

func wss2AVX512(gu, gd, au, ad, diag, ri, est *float64, n int, gmax, qi, s2, c float64, surv *int) (nUp, nDn int) {
	panic("svm: wss2AVX512 called without the AVX-512 kernel")
}

func stepAVX512(gu, gd, au, ad, ri, rj *float64, n int, ci, cj, c float64, out *[2]violators) {
	panic("svm: stepAVX512 called without the AVX-512 kernel")
}
