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

// refAdvance is one server's tick without the conductance memo or the
// batched curve: the fan conductance from its formula and the heat from
// math.Pow, every tick.
func refAdvance(s *Server, dt float64) error {
	u := s.EffectiveUtil()
	heat := powerFromCurve(math.Pow(clamp01(u), utilExponent), s.memFrac, s.dieC)
	return s.step(dt, baseCaseG+perFanG*math.Sqrt(s.fans.Airflow()), heat)
}

// TestPowerMemoMatchesPower: servers driven through a seeded sequence of
// loads (repeated, changed, 0, -0, 1, clamped, fractional), ambient changes,
// fan faults and advances — hot enough that throttling engages and releases —
// stay bit-identical, every step, to twins whose heat comes from math.Pow on
// every tick. The 20 trials step together as one rack, in the substrate's
// three passes: loads and effective utilizations, one UtilCurves call for
// the rack's curve points, then each server's AdvanceCurve.
func TestPowerMemoMatchesPower(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 30))
	const trials = 20
	var srv, ref [trials]*Server
	var util, mem, effective, curves [trials]float64
	for k := range srv {
		p := ServerParams{FanCount: 1 + rng.IntN(4), AmbientC: 22}
		var err error
		if srv[k], err = NewServer(p); err != nil {
			t.Fatal(err)
		}
		if ref[k], err = NewServer(p); err != nil {
			t.Fatal(err)
		}
	}
	throttled := 0
	for step := 0; step < 2000; step++ {
		for k, s := range srv {
			switch rng.IntN(10) {
			case 0, 1, 2: // new load
				util[k] = []float64{0, math.Copysign(0, -1), 1, 1.7, -0.2, rng.Float64(), rng.Float64()}[rng.IntN(7)]
				mem[k] = rng.Float64()
			case 3:
				amb := 15 + 25*rng.Float64()
				s.SetAmbient(amb)
				ref[k].SetAmbient(amb)
			case 4:
				fanOp(rng, s.Fans(), ref[k].Fans())
			}
			s.SetLoad(util[k], mem[k]) // re-set every step: repeats change nothing
			ref[k].SetLoad(util[k], mem[k])
			effective[k] = s.EffectiveUtil()
			if effective[k] < s.util {
				throttled++
			}
		}
		UtilCurves(curves[:], effective[:])
		dt := []float64{1, 1, 1, 0.5, 5}[rng.IntN(5)]
		for k, s := range srv {
			if err := s.AdvanceCurve(dt, curves[k]); err != nil {
				t.Fatal(err)
			}
			if err := refAdvance(ref[k], dt); err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(s.DieTemp()) != math.Float64bits(ref[k].DieTemp()) ||
				math.Float64bits(s.CaseTemp()) != math.Float64bits(ref[k].CaseTemp()) {
				t.Fatalf("trial %d step %d (util %v): die %v case %v, reference die %v case %v",
					k, step, util[k], s.DieTemp(), s.CaseTemp(), ref[k].DieTemp(), ref[k].CaseTemp())
			}
		}
	}
	if throttled == 0 {
		t.Fatal("no step throttled: the sequence never reached the throttled branch")
	}
}
