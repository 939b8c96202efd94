package core

import (
	"math"
	"math/rand"
	"testing"
)

// memoTimes are the curve-local times the memo tests evaluate: the clamps
// (±0, negative, exactly t_break, beyond it, huge, infinite), NaN, the
// smallest positive times, a grid the way fleet rounds produce times, and
// random times inside the warm-up, each listed twice so both the miss and
// the hit of every key are checked.
func memoTimes(rng *rand.Rand, tBreakS float64) []float64 {
	ts := []float64{0, math.Copysign(0, -1), -1, -1e300, math.Inf(-1), tBreakS, math.Nextafter(tBreakS, 0),
		math.Nextafter(tBreakS, math.Inf(1)), 2 * tBreakS, 1e300, math.Inf(1), math.NaN(),
		math.SmallestNonzeroFloat64, 1e-300, 1e-9}
	for k := 1; k <= 80; k++ {
		ts = append(ts, 15*float64(k))
	}
	for range 200 {
		ts = append(ts, rng.Float64()*tBreakS)
	}
	return append(ts, ts...)
}

// TestCurveMemoBitIdentical: through a memo, ψ* and a predictor's γ and
// Δ_gap-ahead prediction carry the same bits as Curve.Value and an
// unmemoised predictor, over random anchors and memoTimes, hit or miss.
func TestCurveMemoBitIdentical(t *testing.T) {
	cfg := DefaultDynamicConfig()
	sh, err := NewShape(DefaultTBreakS, DefaultCurveDelta, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := NewCurveMemo(&sh)
	rng := rand.New(rand.NewSource(2016))
	hits := 0
	for i := 0; i < 50; i++ {
		c := Curve{Phi0: 15 + rng.Float64()*30, Stable: 20 + rng.Float64()*80, TBreakS: DefaultTBreakS, DeltaS: DefaultCurveDelta}
		ref, err := NewDynamicPredictor(c, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var memo DynamicPredictor
		if err := memo.Anchor(c.Phi0, c.Stable, &sh); err != nil {
			t.Fatal(err)
		}
		for _, tt := range memoTimes(rng, c.TBreakS) {
			if e := m.table[memoSlot(math.Float64bits(tt))]; e.key == math.Float64bits(tt) && tt > 0 && tt < c.TBreakS {
				hits++
			}
			if got, want := c.valueOver(tt, sh.logSpan, m), c.Value(tt); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("curve %+v: ψ*(%v) through the memo = %v (%#x), Value %v (%#x)",
					c, tt, got, math.Float64bits(got), want, math.Float64bits(want))
			}
			measured := c.Value(tt) + rng.NormFloat64()
			memo.Observe(tt, measured, m)
			ref.Observe(tt, measured, nil)
			if math.Float64bits(memo.Gamma()) != math.Float64bits(ref.Gamma()) {
				t.Fatalf("curve %+v: γ after Observe(%v) = %v through the memo, %v without", c, tt, memo.Gamma(), ref.Gamma())
			}
			got, want := memo.Predict(tt, m), ref.Predict(tt, nil)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("curve %+v: Predict(%v) = %v through the memo, %v without", c, tt, got, want)
			}
			if math.IsNaN(memo.Gamma()) {
				// A NaN or infinite time poisons γ on both sides alike; start over.
				_ = memo.Anchor(c.Phi0, c.Stable, &sh)
				_ = ref.Reset(c, cfg)
			}
		}
	}
	if hits == 0 {
		t.Fatal("no evaluation hit the memo: the test checks the miss path only")
	}
}

// TestCurveMemoCollisions: two times sharing a table slot evict each other,
// and every evaluation, after an eviction or not, gives Value's bits.
func TestCurveMemoCollisions(t *testing.T) {
	sh, err := NewShape(DefaultTBreakS, DefaultCurveDelta, DefaultDynamicConfig())
	if err != nil {
		t.Fatal(err)
	}
	m := NewCurveMemo(&sh)
	c := Curve{Phi0: 24, Stable: 71, TBreakS: DefaultTBreakS, DeltaS: DefaultCurveDelta}
	rng := rand.New(rand.NewSource(7))
	first := map[uint64]float64{}
	var a, b float64
	for {
		tt := rng.Float64() * c.TBreakS
		slot := memoSlot(math.Float64bits(tt))
		if prev, ok := first[slot]; ok && prev != tt {
			a, b = prev, tt
			break
		}
		first[slot] = tt
	}
	for i := 0; i < 6; i++ {
		tt := a
		if i%2 == 1 {
			tt = b
		}
		if got, want := c.valueOver(tt, sh.logSpan, m), c.Value(tt); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("ψ*(%v) after a collision = %v, Value %v", tt, got, want)
		}
		if e := m.table[memoSlot(math.Float64bits(tt))]; e.key != math.Float64bits(tt) {
			t.Fatalf("slot of %v holds key %#x after evaluating it", tt, e.key)
		}
	}
}

// TestCurveMemoServesOneShape: a curve of another δ or t_break never reads
// or writes the memo, and evaluates as it would without one.
func TestCurveMemoServesOneShape(t *testing.T) {
	cfg := DefaultDynamicConfig()
	sh, err := NewShape(DefaultTBreakS, DefaultCurveDelta, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := NewCurveMemo(&sh)
	for _, c := range []Curve{
		{Phi0: 22, Stable: 70, TBreakS: DefaultTBreakS, DeltaS: 45},
		{Phi0: 22, Stable: 70, TBreakS: 900, DeltaS: DefaultCurveDelta},
	} {
		d, err := NewDynamicPredictor(c, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for tt := 0.0; tt < c.TBreakS; tt += 15 {
			d.Observe(tt, c.Value(tt)+1, m)
			got := d.Predict(tt, m)
			if want := c.Value(tt+cfg.GapS) + d.Gamma(); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("curve %+v: Predict(%v) through another shape's memo = %v, want %v", c, tt, got, want)
			}
		}
	}
	if m.table != ([1 << memoBits]memoEntry{}) {
		t.Fatal("curves of another shape wrote to the memo")
	}
}

// TestAnchorMatchesReset: Anchor on a shape builds the predictor Reset
// builds from the same curve and config — the curve, config, log span and
// λ, γ = 0, unseeded — and refuses NaN anchors leaving the predictor as it
// was.
func TestAnchorMatchesReset(t *testing.T) {
	cfg := DynamicConfig{Lambda: 0.6, UpdateEveryS: 10, GapS: 45}
	sh, err := NewShape(900, 20, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var d DynamicPredictor
	if err := d.Anchor(25, 64, &sh); err != nil {
		t.Fatal(err)
	}
	ref, err := NewDynamicPredictor(Curve{Phi0: 25, Stable: 64, TBreakS: 900, DeltaS: 20}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if d != *ref {
		t.Fatalf("Anchor built %+v, Reset %+v", d, *ref)
	}
	want := PredictorState{Curve: Curve{Phi0: 25, Stable: 64, TBreakS: 900, DeltaS: 20}, Config: cfg}
	if d.State() != want || d.logSpan != math.Log1p(900.0/20) || d.cal.lambda != cfg.Lambda {
		t.Fatalf("Anchor built %+v, want state %+v, log span %v, λ %v", d, want, math.Log1p(900.0/20), cfg.Lambda)
	}
	d.Observe(0, 30, nil)
	before := d
	for _, bad := range [][2]float64{{math.NaN(), 60}, {25, math.NaN()}} {
		if err := d.Anchor(bad[0], bad[1], &sh); err == nil {
			t.Fatalf("Anchor(%v, %v) accepted NaN", bad[0], bad[1])
		}
		if d != before {
			t.Fatalf("a refused Anchor changed the predictor: %+v, was %+v", d, before)
		}
	}
	if _, err := NewShape(0, 20, cfg); err == nil {
		t.Fatal("NewShape accepted t_break 0")
	}
	if _, err := NewShape(600, 20, DynamicConfig{Lambda: 2, UpdateEveryS: 15, GapS: 60}); err == nil {
		t.Fatal("NewShape accepted λ = 2")
	}
}
