package thermal

import (
	"math"
	"math/rand/v2"
	"testing"
)

// fanOp fails one seeded fan — sometimes one already failed, sometimes one
// that does not exist — in every bank given, the same fan in each.
func fanOp(rng *rand.Rand, banks ...*FanBank) {
	i := rng.IntN(banks[0].Count() + 1) // Count() itself is refused
	if rng.IntN(8) == 0 {
		i = -1
	}
	for _, b := range banks {
		_ = b.Fail(i)
	}
}

// TestConductanceMemoMatchesFormula: after every fan failure, accepted or
// refused, the cached Conductance equals the formula over the bank's current
// airflow bit for bit.
func TestConductanceMemoMatchesFormula(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 30))
	for trial := 0; trial < 50; trial++ {
		b, err := newFanBank(rng.IntN(9))
		if err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 200; step++ {
			if step > 0 {
				fanOp(rng, b)
			}
			want := baseCaseG + perFanG*math.Sqrt(b.Airflow())
			for k := 0; k < 2; k++ { // the miss and the hit
				if got := b.Conductance(); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("trial %d step %d: Conductance %v, formula %v (airflow %v)", trial, step, got, want, b.Airflow())
				}
			}
		}
	}
}

// refAdvance is Server.Advance without either memo: the fan conductance from
// its formula and the heat from power, math.Pow every tick.
func refAdvance(s *Server, dt float64) error {
	u := s.EffectiveUtil()
	return s.step(dt, baseCaseG+perFanG*math.Sqrt(s.fans.Airflow()), power(u, s.memFrac, s.dieC))
}

// TestPowerMemoMatchesPower: a server driven through a seeded sequence of
// loads (repeated, changed, 0, -0, 1, clamped, fractional), ambient changes,
// fan faults and advances — hot enough that throttling engages and releases —
// stays bit-identical, every step, to a twin whose heat comes from power on
// every tick.
func TestPowerMemoMatchesPower(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 30))
	throttled := 0
	for trial := 0; trial < 20; trial++ {
		p := ServerParams{FanCount: 1 + rng.IntN(4), AmbientC: 22}
		s, err := NewServer(p)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := NewServer(p)
		if err != nil {
			t.Fatal(err)
		}
		util, mem := 0.0, 0.0
		for step := 0; step < 2000; step++ {
			switch rng.IntN(10) {
			case 0, 1, 2: // new load
				util = []float64{0, math.Copysign(0, -1), 1, 1.7, -0.2, rng.Float64(), rng.Float64()}[rng.IntN(7)]
				mem = rng.Float64()
			case 3:
				amb := 15 + 25*rng.Float64()
				s.SetAmbient(amb)
				ref.SetAmbient(amb)
			case 4:
				fanOp(rng, s.Fans(), ref.Fans())
			}
			s.SetLoad(util, mem) // re-set every step: repeats are the memo's hits
			ref.SetLoad(util, mem)
			if s.EffectiveUtil() < s.util {
				throttled++
			}
			dt := []float64{1, 1, 1, 0.5, 5}[rng.IntN(5)]
			if err := s.Advance(dt); err != nil {
				t.Fatal(err)
			}
			if err := refAdvance(ref, dt); err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(s.DieTemp()) != math.Float64bits(ref.DieTemp()) ||
				math.Float64bits(s.CaseTemp()) != math.Float64bits(ref.CaseTemp()) {
				t.Fatalf("trial %d step %d (util %v): die %v case %v, reference die %v case %v",
					trial, step, util, s.DieTemp(), s.CaseTemp(), ref.DieTemp(), ref.CaseTemp())
			}
		}
	}
	if throttled == 0 {
		t.Fatal("no step throttled: the sequence never reached the throttled branch")
	}
}
