package svm

import (
	"math/rand"
	"testing"
)

// syntheticRBF builds an RBF model with nsv random support vectors in
// [-1, 1]^dim (svm-scale's range) and coefficients in [-10, 10], the
// shape ψ_stable serves: 117 SVs × 16 features at the pinned seed.
func syntheticRBF(r *rand.Rand, nsv, dim int, gamma float64) *Model {
	m := &Model{Kernel: Kernel{Type: RBF, Gamma: gamma}, Dim: dim, Rho: r.Float64()*80 - 40}
	for i := 0; i < nsv; i++ {
		sv := make([]float64, dim)
		for j := range sv {
			sv[j] = r.Float64()*2 - 1
		}
		m.SV = append(m.SV, sv)
		m.Coef = append(m.Coef, r.Float64()*20-10)
	}
	return m
}

// randomRows returns n row-major rows in [-1, 1]^dim.
func randomRows(r *rand.Rand, n, dim int) []float64 {
	xs := make([]float64, n*dim)
	for i := range xs {
		xs[i] = r.Float64()*2 - 1
	}
	return xs
}

// BenchmarkKernelRow prices one RBF kernel row at the served shape: a
// 256-row batch (one 16-VM placement request) through PredictBatchInto on
// a warm scratch, reported per row.
func BenchmarkKernelRow(b *testing.B) {
	const nsv, dim, rows = 117, 16, 256
	r := rand.New(rand.NewSource(2017))
	m := syntheticRBF(r, nsv, dim, 0.25)
	xs := randomRows(r, rows, dim)
	out := make([]float64, rows)
	var s BatchScratch
	if err := m.PredictBatchInto(xs, out, &s); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.PredictBatchInto(xs, out, &s); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/row")
}
