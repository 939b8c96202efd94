package workload

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestConstantClamped(t *testing.T) {
	if (Constant{Level: 1.7}).At(10) != 1 {
		t.Error("constant not clamped high")
	}
	if (Constant{Level: -0.5}).At(0) != 0 {
		t.Error("constant not clamped low")
	}
	if (Constant{Level: 0.42}).At(999) != 0.42 {
		t.Error("constant changed value")
	}
}

func TestSinePeriodic(t *testing.T) {
	s := Sine{Base: 0.5, Amplitude: 0.3, Period: 100}
	if math.Abs(s.At(0)-0.5) > 1e-12 {
		t.Errorf("At(0) = %v", s.At(0))
	}
	if math.Abs(s.At(25)-0.8) > 1e-12 {
		t.Errorf("At(quarter) = %v, want 0.8", s.At(25))
	}
	if math.Abs(s.At(0)-s.At(100)) > 1e-12 {
		t.Error("not periodic")
	}
}

func TestSineZeroPeriodFallsBackToBase(t *testing.T) {
	s := Sine{Base: 0.4, Amplitude: 0.3, Period: 0}
	if s.At(17) != 0.4 {
		t.Errorf("At = %v, want base", s.At(17))
	}
}

func TestBurstySquareWave(t *testing.T) {
	b := Bursty{Low: 0.1, High: 0.9, Period: 100, DutyCycle: 0.25}
	if b.At(0) != 0.9 || b.At(24) != 0.9 {
		t.Error("high phase wrong")
	}
	if b.At(25) != 0.1 || b.At(99) != 0.1 {
		t.Error("low phase wrong")
	}
	if b.At(100) != 0.9 {
		t.Error("next period should restart high")
	}
}

func TestBurstyZeroPeriod(t *testing.T) {
	b := Bursty{Low: 0.2, High: 0.9, Period: 0, DutyCycle: 0.5}
	if b.At(5) != 0.2 {
		t.Error("zero period should hold Low")
	}
}

func TestMeanOver(t *testing.T) {
	m, err := MeanOver(Constant{Level: 0.3}, 0, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m-0.3) > 1e-12 {
		t.Errorf("mean = %v", m)
	}
	if _, err := MeanOver(nil, 0, 1, 1); err == nil {
		t.Error("nil profile should fail")
	}
	if _, err := MeanOver(Constant{}, 10, 0, 1); err == nil {
		t.Error("inverted range should fail")
	}
	if _, err := MeanOver(Constant{}, 0, 1, 0); err == nil {
		t.Error("zero step should fail")
	}
}

// Property: every profile stays within [0, 1] at all times.
func TestProfilesBoundedProperty(t *testing.T) {
	f := func(base, amp, period, t float64) bool {
		if math.IsNaN(base) || math.IsNaN(amp) || math.IsNaN(period) || math.IsNaN(t) {
			return true
		}
		t = math.Abs(t)
		profiles := []Profile{
			Constant{Level: base},
			Sine{Base: base, Amplitude: amp, Period: period},
			Bursty{Low: base, High: amp, Period: period, DutyCycle: 0.5},
		}
		for _, p := range profiles {
			v := p.At(t)
			if v < 0 || v > 1 || math.IsNaN(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// checkModPeriod fails unless modPeriod(t, p) has math.Mod's bits (any NaN
// standing for every NaN).
func checkModPeriod(t *testing.T, tv, p float64) {
	t.Helper()
	got, want := modPeriod(tv, p), math.Mod(tv, p)
	if math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
		t.Fatalf("modPeriod(%v, %v) = %v (%#x), math.Mod gives %v (%#x)",
			tv, p, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// TestModPeriodMatchesMathMod is a differential against math.Mod over the
// simulator's periods and clock, exact and near multiples of the period,
// random bit patterns, and the edges of the fast path's domain.
func TestModPeriodMatchesMathMod(t *testing.T) {
	r := rand.New(rand.NewSource(35))
	for i := 0; i < 50000; i++ {
		p := 60 + 240*r.Float64() // scenario.go's Bursty periods
		tv := 3600 * r.Float64()
		checkModPeriod(t, tv, p)
		k := float64(r.Intn(1 << 20))
		for _, near := range []float64{k * p, math.Nextafter(k*p, 0), math.Nextafter(k*p, math.Inf(1))} {
			checkModPeriod(t, near, p)
		}
		checkModPeriod(t, math.Float64frombits(r.Uint64()), math.Float64frombits(r.Uint64()))
		checkModPeriod(t, math.Abs(math.Float64frombits(r.Uint64())), math.Abs(math.Float64frombits(r.Uint64())))
	}
	edges := []float64{0, math.Copysign(0, -1), 5e-324, 1, 3, 0.1, 1 << 52, 1 << 53, math.MaxFloat64,
		math.Inf(1), math.Inf(-1), math.NaN(), -1, 2.5}
	for _, p := range edges {
		for _, tv := range edges {
			checkModPeriod(t, tv, p)
			checkModPeriod(t, tv*p, p)
			checkModPeriod(t, math.Nextafter(p*(1<<52), 0), p)
			checkModPeriod(t, p*(1<<52), p)
		}
	}
}

// FuzzModPeriod mutates the two operands' bits against math.Mod.
func FuzzModPeriod(f *testing.F) {
	f.Add(1800.0, 159.23117317987786)
	f.Add(5.0, 0.1)
	f.Add(math.Nextafter(3*0.1, 1), 0.1)
	f.Add(4503599627370495.0, 1.0)
	f.Add(1e300, 1e-300)
	f.Fuzz(func(t *testing.T, tv, p float64) {
		checkModPeriod(t, tv, p)
	})
}

// BenchmarkBurstyAt prices one square-wave sample at the simulator's shape:
// a period of a few minutes, a clock of half an hour.
func BenchmarkBurstyAt(b *testing.B) {
	p := Bursty{Low: 0.1, High: 0.8, Period: 159.23117317987786, DutyCycle: 0.4}
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += p.At(float64(i%1800) + 0.5)
	}
	_ = sink
}

// countingSine is a Sine that counts its evaluations and the times it is
// evaluated at.
type countingSine struct {
	Sine
	n     *int
	first *float64
	last  *float64
}

func (p countingSine) At(t float64) float64 {
	if *p.n == 0 {
		*p.first = t
	}
	*p.n++
	*p.last = t
	return p.Sine.At(t)
}

// TestMeanOverGridPoints: the training encoder's grid (step horizon/200)
// evaluates 201 points from 0 to the horizon at every integer horizon
// 1–7,200 — accumulating t += step dropped the last point at 3,430 of them
// — and at the experiment length, 1,800 s, the mean keeps the bits of the
// accumulated loop, whose points are exact there.
func TestMeanOverGridPoints(t *testing.T) {
	var n int
	var first, last float64
	p := countingSine{Sine: Sine{Base: 0.5, Amplitude: 0.3, Period: 377, Phase: 1}, n: &n, first: &first, last: &last}
	for h := 1; h <= 7200; h++ {
		n = 0
		horizon := float64(h)
		if _, err := MeanOver(p, 0, horizon, horizon/200); err != nil {
			t.Fatal(err)
		}
		if n != 201 || first != 0 || last != horizon {
			t.Fatalf("horizon %d: %d points over [%v, %v], want 201 over [0, %d]", h, n, first, last, h)
		}
	}
	const horizon = 1800
	var sum float64
	var points int
	for t := 0.0; t <= horizon; t += horizon / 200 {
		sum += p.Sine.At(t)
		points++
	}
	got, err := MeanOver(p.Sine, 0, horizon, horizon/200)
	if err != nil {
		t.Fatal(err)
	}
	if want := sum / float64(points); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("at %d s: mean %v, accumulated loop %v", horizon, got, want)
	}
}
