package svm

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// syntheticRBF builds an RBF model with nsv random support vectors in
// [-1, 1]^dim (svm-scale's range) and coefficients in [-10, 10], the
// shape ψ_stable serves: 117 SVs × 16 features at the pinned seed.
func syntheticRBF(r *rand.Rand, nsv, dim int, gamma float64) *Model {
	m := &Model{Kernel: Kernel{Gamma: gamma}, Dim: dim, Rho: r.Float64()*80 - 40}
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
// a warm scratch, reported per row, once per vector width the CPU has
// (lanes=8, lanes=4) or on the portable path (generic).
func BenchmarkKernelRow(b *testing.B) {
	const nsv, dim, rows = 117, 16, 256
	run := func(b *testing.B) {
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
	if len(kernelWidths()) == 0 {
		b.Run("generic", run)
	}
	for _, lanes := range kernelWidths() {
		b.Run(fmt.Sprintf("lanes=%d", lanes), func(b *testing.B) {
			defer useWidth(lanes)()
			run(b)
		})
	}
}

// BenchmarkTrain prices one cross-validation fold of the grid's slowest
// cell: 128 training rows × 16 features (a 5-fold split of the benchmark's
// 160 records) at C = 256, γ = 0.01, ε = 0.1 under SecondOrder, the rule
// every trainer uses. The rows are synthetic, in svm-scale's [-1, 1] with
// temperature-like targets, so the fold's shape is real but its iteration
// count is not. iters/op is fixed by the data; ns/iter is what one SMO
// iteration costs, the Gram matrix's evaluation included. It runs once per
// width the CPU's SMO passes have (lanes=8, lanes=4), or on the portable
// scalar loop (generic).
func BenchmarkTrain(b *testing.B) {
	const l, dim = 128, 16
	r := rand.New(rand.NewSource(2016))
	x := make([][]float64, l)
	z := make([]float64, l)
	for i := range x {
		x[i] = randomRows(r, 1, dim)
		var s float64
		for _, v := range x[i] {
			s += v
		}
		z[i] = 55 + 8*math.Sin(s) + 2*x[i][0] + 0.5*r.NormFloat64()
	}
	p := TrainParams{Kernel: Kernel{Gamma: 0.01}, C: 256, Epsilon: 0.1, Selection: SecondOrder}
	run := func(b *testing.B) {
		var iters int
		for i := 0; i < b.N; i++ {
			m, err := Train(x, z, p)
			if err != nil {
				b.Fatal(err)
			}
			iters = m.Iters
		}
		b.ReportMetric(float64(iters), "iters/op")
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*iters), "ns/iter")
	}
	for _, lanes := range passWidths() {
		name := fmt.Sprintf("lanes=%d", lanes)
		if lanes == 0 {
			if len(passWidths()) > 1 {
				continue
			}
			name = "generic"
		}
		b.Run(name, func(b *testing.B) {
			defer usePassWidth(lanes)()
			run(b)
		})
	}
}
