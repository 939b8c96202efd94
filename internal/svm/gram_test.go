package svm

import (
	"math"
	"math/rand"
	"testing"
)

// TestTrainGramMatchesRowCache: a fit from a Gram matrix, on all of its
// samples or on a fold-like subset, is the model a solver evaluating its
// own kernel rows gives on those rows, to the bit, for every γ:
// Kernel.Eval is symmetric to the bit, so the matrix holds what the rows
// would.
func TestTrainGramMatchesRowCache(t *testing.T) {
	kernels := []Kernel{
		{Gamma: 0.25},
		{Gamma: 0.05},
		{Gamma: 1},
		{Gamma: 4},
	}
	for seed := int64(0); seed < 12; seed++ {
		x, z, p, _ := goldenProblem(seed)
		p.Kernel = kernels[seed%int64(len(kernels))]
		p.Selection = SecondOrder
		g, err := NewGram(x, p.Kernel)
		if err != nil {
			t.Fatal(err)
		}
		r := rand.New(rand.NewSource(seed))
		var idx []int // every fifth sample left out, as a 5-fold split does
		for i := range x {
			if r.Intn(5) != 0 {
				idx = append(idx, i)
			}
		}
		if len(idx) == 0 {
			idx = []int{0}
		}
		for _, sub := range [][]int{nil, idx} {
			xs, zs := x, z
			if sub != nil {
				xs, zs = make([][]float64, len(sub)), make([]float64, len(sub))
				for t, i := range sub {
					xs[t], zs[t] = x[i], z[i]
				}
			}
			want, err := fit(newRowCache(len(xs), p.Kernel, xs), zs, p)
			if err != nil {
				t.Fatal(err)
			}
			got, err := TrainGram(g, sub, zs, p)
			if err != nil {
				t.Fatal(err)
			}
			if modelDigest(got) != modelDigest(want) {
				t.Errorf("seed %d %v, %d of %d samples: TrainGram differs from the row cache (iters %d vs %d)",
					seed, p.Kernel, len(xs), len(x), got.Iters, want.Iters)
			}
		}
	}
}

func TestNewGramRejects(t *testing.T) {
	rbf := Kernel{Gamma: 1}
	for name, tc := range map[string]struct {
		x [][]float64
		k Kernel
	}{
		"no samples":   {nil, rbf},
		"bad kernel":   {[][]float64{{1}}, Kernel{}},
		"ragged":       {[][]float64{{1, 2}, {1}}, rbf},
		"NaN feature":  {[][]float64{{math.NaN()}}, rbf},
		"over ceiling": {make([][]float64, 4097), rbf},
	} {
		if name == "over ceiling" {
			for i := range tc.x {
				tc.x[i] = []float64{float64(i)}
			}
		}
		if _, err := NewGram(tc.x, tc.k); err == nil {
			t.Errorf("%s: NewGram accepted it", name)
		}
	}
}

func TestTrainGramRejects(t *testing.T) {
	x, z := wss2Data(10, 41)
	k := Kernel{Gamma: 0.5}
	g, err := NewGram(x, k)
	if err != nil {
		t.Fatal(err)
	}
	p := TrainParams{Kernel: k, C: 1, Epsilon: 0.1}
	other := p
	other.Kernel.Gamma = 0.25
	nan := p
	nan.C = math.NaN()
	for name, tc := range map[string]struct {
		idx []int
		z   []float64
		p   TrainParams
	}{
		"other kernel":   {nil, z, other},
		"bad params":     {nil, z, nan},
		"index too big":  {[]int{0, 10}, z[:2], p},
		"negative index": {[]int{-1}, z[:1], p},
		"no samples":     {[]int{}, nil, p},
		"short targets":  {nil, z[:9], p},
		"NaN target":     {[]int{0}, []float64{math.NaN()}, p},
	} {
		if _, err := TrainGram(g, tc.idx, tc.z, tc.p); err == nil {
			t.Errorf("%s: TrainGram accepted it", name)
		}
	}
}
