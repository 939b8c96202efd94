package svm

import (
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "regenerate testdata golden files")

// goldenProblem is one seeded ε-SVR problem of the solver golden: l samples
// in [-1, 1]^dim (svm-scale's range) with temperature-like targets, and C, γ,
// ε drawn from the axes of mlgrid.Default and core.FastStableConfig. One
// problem in six each duplicates a third of its rows, holds its targets
// constant, or keeps them all inside the ε-tube.
func goldenProblem(seed int64) (x [][]float64, z []float64, p TrainParams, shape string) {
	r := rand.New(rand.NewSource(seed))
	l := 1 + r.Intn(200)
	dim := 1 + r.Intn(16)
	cs := []float64{0.25, 1, 4, 16, 64, 256}
	gammas := []float64{1.0 / 256, 1.0 / 64, 0.01, 1.0 / 16, 0.1, 0.25, 1, 4}
	epss := []float64{0.05, 0.1, 0.2}
	p = TrainParams{
		Kernel:  Kernel{Gamma: gammas[r.Intn(len(gammas))]},
		C:       cs[r.Intn(len(cs))],
		Epsilon: epss[r.Intn(len(epss))],
	}
	x = make([][]float64, l)
	z = make([]float64, l)
	for i := range x {
		x[i] = make([]float64, dim)
		var s float64
		for j := range x[i] {
			x[i][j] = r.Float64()*2 - 1
			s += x[i][j]
		}
		z[i] = 55 + 8*math.Sin(s) + 2*x[i][0] + 0.5*r.NormFloat64()
	}
	switch seed % 6 {
	case 1:
		shape = "dup"
		for i := 1; i < l; i += 3 {
			x[i] = append([]float64(nil), x[r.Intn(i)]...)
		}
	case 2:
		shape = "const"
		for i := range z {
			z[i] = 48.5
		}
	case 3:
		shape = "tube"
		for i := range z {
			z[i] = 48.5 + (r.Float64()*2-1)*p.Epsilon*0.9
		}
	default:
		shape = "plain"
	}
	return x, z, p, shape
}

// modelDigest is SHA-256 over the bits of Rho, Iters and every support
// vector and coefficient, in order.
func modelDigest(m *Model) [sha256.Size]byte {
	var b []byte
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(m.Rho))
	b = binary.LittleEndian.AppendUint64(b, uint64(m.Iters))
	for i, sv := range m.SV {
		for _, v := range sv {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(m.Coef[i]))
	}
	return sha256.Sum256(b)
}

// TestSolverGolden pins trained models bit for bit against digests
// recorded before the SMO loops were split into up and down halves: 60
// seeded problems (l 1–200, dimension 1–16) under both selection rules, one
// line per fit so a divergence names its problem.
//
//	go test ./internal/svm -run TestSolverGolden -update-golden
func TestSolverGolden(t *testing.T) {
	var got strings.Builder
	for seed := int64(0); seed < 60; seed++ {
		x, z, p, shape := goldenProblem(seed)
		for _, rule := range []SelectionRule{MaxViolatingPair, SecondOrder} {
			p.Selection = rule
			m, err := Train(x, z, p)
			if err != nil {
				t.Fatalf("seed %d rule %d: %v", seed, rule, err)
			}
			fmt.Fprintf(&got, "seed %2d rule %d %-5s l %3d dim %2d C %g gamma %g eps %g: iters %d sv %d sha256 %x\n",
				seed, rule, shape, len(x), len(x[0]), p.C, p.Kernel.Gamma, p.Epsilon, m.Iters, m.NumSV(), modelDigest(m))
		}
	}
	path := filepath.Join("testdata", "solver_golden.txt")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() == string(want) {
		return
	}
	gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := range max(len(gl), len(wl)) {
		if i >= len(gl) || i >= len(wl) || gl[i] != wl[i] {
			t.Errorf("line %d differs:\n got %s\nwant %s", i+1, line(gl, i), line(wl, i))
		}
	}
}

func line(lines []string, i int) string {
	if i < len(lines) {
		return lines[i]
	}
	return "<none>"
}
