package svm

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

// oracleRow is the AVX2 kernel's arithmetic written out in Go, from the
// model's own SV rows rather than the flattened matrix. Whole blocks of
// four support vectors: four lane accumulators per SV fed by fused
// multiply-adds, reduced (l0+l2)+(l1+l3), the dim%4 trailing features added
// with a rounded square, scalar expNeg, terms added ((p0+p1)+p2)+p3. The
// last nsv%4 support vectors: one accumulator, rounded squares. Every
// product that the kernel rounds is rounded here by a conversion, so the
// reference holds where the compiler may fuse (GOAMD64=v3).
func oracleRow(m *Model, x []float64) float64 {
	dim, nsv := m.Dim, len(m.SV)
	term := func(k int, d float64) float64 {
		return float64(m.Coef[k] * expNeg(float64(m.Kernel.Gamma*d)))
	}
	var sum float64
	k := 0
	for ; k+4 <= nsv; k += 4 {
		var p [4]float64
		for i := range p {
			sv := m.SV[k+i]
			var l [4]float64
			j := 0
			for ; j+4 <= dim; j += 4 {
				for q := range l {
					t := sv[j+q] - x[j+q]
					l[q] = math.FMA(t, t, l[q])
				}
			}
			d := (l[0] + l[2]) + (l[1] + l[3])
			for ; j < dim; j++ {
				t := sv[j] - x[j]
				d += float64(t * t)
			}
			p[i] = term(k+i, d)
		}
		sum += ((p[0] + p[1]) + p[2]) + p[3]
	}
	for ; k < nsv; k++ {
		var d float64
		for j, v := range m.SV[k] {
			t := v - x[j]
			d += float64(t * t)
		}
		sum += term(k, d)
	}
	return sum - m.Rho
}

// sameBits reports whether two results are the same float64, any NaN
// standing for every NaN (payloads depend on operand order).
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// checkAgainstOracle runs xs through PredictBatchInto and compares every
// row with oracleRow bit for bit.
func checkAgainstOracle(t *testing.T, m *Model, xs []float64, what string) {
	t.Helper()
	rows := len(xs) / m.Dim
	out := make([]float64, rows)
	var s BatchScratch
	if err := m.PredictBatchInto(xs, out, &s); err != nil {
		t.Fatal(err)
	}
	for i, got := range out {
		if want := oracleRow(m, xs[i*m.Dim:(i+1)*m.Dim]); !sameBits(got, want) {
			t.Errorf("%s dim=%d nsv=%d gamma=%g row %d/%d: kernel %v (%#x) vs oracle %v (%#x)",
				what, m.Dim, len(m.SV), m.Kernel.Gamma, i, rows,
				got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}

// TestFusedKernelBitIdentity pins the AVX2 kernel to its pure-Go reference
// with math.Float64bits equality. It logs which kernel served the rows so a
// CI runner that silently fell back to the portable path is visible.
func TestFusedKernelBitIdentity(t *testing.T) {
	if !useAVX {
		t.Skip("svm kernel: generic (no AVX2 kernel in this build or on this CPU); nothing to compare")
	}
	t.Log("svm kernel: avx2-fused")
	r := rand.New(rand.NewSource(17))
	nsvs := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 116, 117, 118, 119}
	gammas := []float64{1e-3, 1.0 / 16, 0.25, 1, 7.5, 60}

	// Shapes: every dim%4 tail, block counts both even and odd, with and
	// without remainder SVs, and one batch per size so row offsets vary.
	t.Run("shapes", func(t *testing.T) {
		for dim := 1; dim <= 33; dim++ {
			for i, nsv := range nsvs {
				gamma := gammas[(dim+i)%len(gammas)]
				m := syntheticRBF(r, nsv, dim, gamma)
				for _, rows := range []int{1, 2, 3} {
					checkAgainstOracle(t, m, randomRows(r, rows, dim), "shapes")
				}
			}
		}
	})
	t.Run("batches", func(t *testing.T) {
		for _, gamma := range gammas {
			m := syntheticRBF(r, 117, 16, gamma)
			for _, rows := range []int{255, 256} {
				checkAgainstOracle(t, m, randomRows(r, rows, 16), "batches")
			}
		}
	})

	// Lanes at and beyond the edges of expNeg's fast range. The support
	// vector at index pos is the origin and gamma·d is steered through the
	// row's first feature, so the special lane visits every position of a
	// block pair, the odd last block and the scalar remainder.
	t.Run("edges", func(t *testing.T) {
		above := math.Nextafter(expNegMax, math.Inf(1))
		type edge struct {
			name  string
			gamma float64
			x0    float64 // first feature of the row; the rest are zero
		}
		edges := []edge{
			{"zero", 0.25, 0},
			{"708", expNegMax, 1},
			{"above708", above, 1},
			{"below708", math.Nextafter(expNegMax, 0), 1},
			{"far", 0.25, 1e3},
			{"+Inf-distance", 0.25, 1e200},
			{"+Inf-feature", 0.25, math.Inf(1)},
			{"-Inf-feature", 0.25, math.Inf(-1)},
			{"NaN", 0.25, math.NaN()},
		}
		for _, dim := range []int{1, 3, 4, 6, 16} {
			for _, nsv := range []int{4, 8, 13, 14, 15} {
				for pos := 0; pos < nsv; pos++ {
					for _, e := range edges {
						m := syntheticRBF(r, nsv, dim, e.gamma)
						for j := range m.SV[pos] {
							m.SV[pos][j] = 0
						}
						// Keep the other lanes in range at gamma ≈ 708
						// so only the steered lane decides the path.
						if e.gamma > 1 {
							for i, sv := range m.SV {
								for j := range sv {
									m.SV[i][j] *= 0.01
								}
							}
						}
						// An ordinary row rides along on either side: one
						// row leaving the fast path must not disturb its
						// neighbours in the batch.
						xs := randomRows(r, 3, dim)
						row := xs[dim : 2*dim]
						for j := range row {
							row[j] = 0
						}
						row[0] = e.x0
						checkAgainstOracle(t, m, xs, e.name)
					}
				}
			}
		}
	})

	// One check that does not depend on the oracle: e^-0 is 1, so support
	// vectors at the origin contribute exactly their coefficients to a row
	// at the origin.
	t.Run("exact", func(t *testing.T) {
		m := syntheticRBF(r, 8, 16, 0.25)
		for i := range m.SV {
			for j := range m.SV[i] {
				m.SV[i][j] = 0
			}
		}
		out := make([]float64, 1)
		var s BatchScratch
		if err := m.PredictBatchInto(make([]float64, 16), out, &s); err != nil {
			t.Fatal(err)
		}
		var want float64
		for k := 0; k < 8; k += 4 {
			want += ((m.Coef[k] + m.Coef[k+1]) + m.Coef[k+2]) + m.Coef[k+3]
		}
		if want -= m.Rho; out[0] != want {
			t.Errorf("all lanes at zero distance: %v, want the coefficient sum %v", out[0], want)
		}
	})
}

// TestFusedKernelNeedsFinitePositiveGamma pins the gate: a model whose gamma
// the kernel's range check does not cover takes the portable path, and
// gives exactly what that path gives.
func TestFusedKernelNeedsFinitePositiveGamma(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for _, gamma := range []float64{0, -0.5, math.Inf(1), math.NaN()} {
		m := syntheticRBF(r, 9, 5, gamma)
		if m.fusedRBF() {
			t.Errorf("gamma %v admitted to the AVX2 kernel", gamma)
		}
		xs := randomRows(r, 2, 5)
		out := make([]float64, 2)
		var s BatchScratch
		if err := m.PredictBatchInto(xs, out, &s); err != nil {
			t.Fatal(err)
		}
		dists := make([]float64, 9)
		for i, got := range out {
			if want := m.predictRowRBF(m.flatSVs(), xs[i*5:(i+1)*5], dists, false); !sameBits(got, want) {
				t.Errorf("gamma %v row %d: %v vs portable %v", gamma, i, got, want)
			}
		}
	}
}

// TestPredictBatchIntoZeroAlloc pins the kernel's own layer: with a warm
// scratch a 256-row batch allocates nothing.
func TestPredictBatchIntoZeroAlloc(t *testing.T) {
	const nsv, dim, rows = 117, 16, 256
	r := rand.New(rand.NewSource(2017))
	m := syntheticRBF(r, nsv, dim, 0.25)
	xs := randomRows(r, rows, dim)
	out := make([]float64, rows)
	var s BatchScratch
	if err := m.PredictBatchInto(xs, out, &s); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := m.PredictBatchInto(xs, out, &s); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("warm PredictBatchInto allocated %v times per %d-row batch, want 0", allocs, rows)
	}
}

// TestPredictBatchIntoConcurrent shares one model between goroutines, each
// with its own scratch and output, and compares every output bit for bit
// with a serial run. The model is fresh, so the goroutines also race to
// flatten the support vectors — the only write on the path; the kernel
// reads flatSV, Coef and expNegTab concurrently. Run under -race.
func TestPredictBatchIntoConcurrent(t *testing.T) {
	const nsv, dim, rows, workers = 117, 16, 256, 8
	r := rand.New(rand.NewSource(23))
	m := syntheticRBF(r, nsv, dim, 0.25)
	xs := randomRows(r, rows, dim)

	serial := &Model{Kernel: m.Kernel, SV: m.SV, Coef: m.Coef, Rho: m.Rho, Dim: m.Dim}
	want := make([]float64, rows)
	var s BatchScratch
	if err := serial.PredictBatchInto(xs, want, &s); err != nil {
		t.Fatal(err)
	}

	outs := make([][]float64, workers)
	var wg sync.WaitGroup
	for w := range outs {
		outs[w] = make([]float64, rows)
		wg.Add(1)
		go func(out []float64) {
			defer wg.Done()
			var s BatchScratch
			for pass := 0; pass < 4; pass++ {
				if err := m.PredictBatchInto(xs, out, &s); err != nil {
					t.Error(err)
					return
				}
			}
		}(outs[w])
	}
	wg.Wait()
	for w, out := range outs {
		for i := range out {
			if math.Float64bits(out[i]) != math.Float64bits(want[i]) {
				t.Fatalf("worker %d row %d: %v vs serial %v", w, i, out[i], want[i])
			}
		}
	}
}
