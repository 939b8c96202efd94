package mathx

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewRNGDeterministic(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 100; i++ {
		if got, want := a.Uniform(0, 1), b.Uniform(0, 1); got != want {
			t.Fatalf("sequence diverged at step %d: %v != %v", i, got, want)
		}
	}
}

func TestNewRNGSeedsDiffer(t *testing.T) {
	a := NewRNG(1)
	b := NewRNG(2)
	same := 0
	for i := 0; i < 50; i++ {
		if a.Uniform(0, 1) == b.Uniform(0, 1) {
			same++
		}
	}
	if same == 50 {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestSplitStableIndependentOfConsumption(t *testing.T) {
	// A stable split must not depend on how much of any parent stream was used.
	a := SplitStable(7, "sensor")
	parent := NewRNG(7)
	parent.Uniform(0, 1)
	parent.Uniform(0, 1)
	b := SplitStable(7, "sensor")
	for i := 0; i < 20; i++ {
		if a.Uniform(0, 1) != b.Uniform(0, 1) {
			t.Fatal("SplitStable stream depends on external state")
		}
	}
}

func TestSplitStableLabelsDiffer(t *testing.T) {
	a := SplitStable(7, "alpha")
	b := SplitStable(7, "beta")
	same := 0
	for i := 0; i < 50; i++ {
		if a.Uniform(0, 1) == b.Uniform(0, 1) {
			same++
		}
	}
	if same == 50 {
		t.Fatal("different labels produced identical streams")
	}
}

func TestUniformRange(t *testing.T) {
	g := NewRNG(3)
	for i := 0; i < 1000; i++ {
		x := g.Uniform(-2, 5)
		if x < -2 || x >= 5 {
			t.Fatalf("Uniform(-2,5) out of range: %v", x)
		}
	}
}

func TestIntBetweenInclusive(t *testing.T) {
	g := NewRNG(4)
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		v := g.IntBetween(2, 12)
		if v < 2 || v > 12 {
			t.Fatalf("IntBetween(2,12) out of range: %d", v)
		}
		seen[v] = true
	}
	for v := 2; v <= 12; v++ {
		if !seen[v] {
			t.Errorf("IntBetween never produced %d in 1000 draws", v)
		}
	}
}

func TestIntBetweenPanicsOnInvertedBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for inverted bounds")
		}
	}()
	NewRNG(1).IntBetween(5, 4)
}

func TestNormalMoments(t *testing.T) {
	g := NewRNG(5)
	xs := make([]float64, 20000)
	for i := range xs {
		xs[i] = g.Normal(10, 2)
	}
	mean, _ := Mean(xs)
	if math.Abs(mean-10) > 0.1 {
		t.Errorf("Normal mean = %v, want ~10", mean)
	}
	var ss float64
	for _, x := range xs {
		ss += (x - mean) * (x - mean)
	}
	if std := math.Sqrt(ss / float64(len(xs)-1)); math.Abs(std-2) > 0.1 {
		t.Errorf("Normal std = %v, want ~2", std)
	}
}

func TestPermIsPermutation(t *testing.T) {
	if err := quick.Check(func(seed int64) bool {
		p := NewRNG(seed).Perm(17)
		seen := make([]bool, 17)
		for _, v := range p {
			if v < 0 || v >= 17 || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestBoolProbability(t *testing.T) {
	g := NewRNG(12)
	n := 0
	for i := 0; i < 20000; i++ {
		if g.Bool(0.25) {
			n++
		}
	}
	got := float64(n) / 20000
	if math.Abs(got-0.25) > 0.02 {
		t.Errorf("Bool(0.25) frequency = %v", got)
	}
}
