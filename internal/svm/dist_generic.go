//go:build !amd64 || noasm

package svm

// Non-amd64 platforms — and any build with the noasm tag, which CI uses to
// exercise this path on every PR — have no vector kernel: every row takes
// sqDistsGeneric and scalar expNeg.
const useAVX = false

func rbfBlocksAVX(flat, x, coef *float64, dim, blocks int, gamma float64, dists *float64) (sum float64, ok bool) {
	panic("svm: rbfBlocksAVX called without the AVX2 kernel")
}
