package energy

import (
	"math"
	"testing"
	"testing/quick"
)

func TestCOPIncreasingInSupplyTemp(t *testing.T) {
	prev := COP(10)
	for s := 11.0; s <= 30; s++ {
		cur := COP(s)
		if cur <= prev {
			t.Fatalf("COP not increasing at %v: %v <= %v", s, cur, prev)
		}
		prev = cur
	}
}

func TestCOPKnownValues(t *testing.T) {
	// HP model at 15 °C: 0.0068·225 + 0.0008·15 + 0.458 = 2.0.
	if got := COP(15); math.Abs(got-2.0) > 1e-12 {
		t.Errorf("COP(15) = %v, want 2.0", got)
	}
}

func TestCoolingPower(t *testing.T) {
	p, err := CoolingPower(2000, 15) // COP 2.0
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p-1000) > 1e-9 {
		t.Errorf("cooling power = %v, want 1000", p)
	}
	if _, err := CoolingPower(-1, 15); err == nil {
		t.Error("negative heat should fail")
	}
}

func TestCoolingPowerDecreasesWithWarmerSupply(t *testing.T) {
	cold, err := CoolingPower(10000, 15)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := CoolingPower(10000, 25)
	if err != nil {
		t.Fatal(err)
	}
	if warm >= cold {
		t.Errorf("warmer supply should cost less: %v vs %v", warm, cold)
	}
}

func TestOptimizeSetpointHeadroom(t *testing.T) {
	// Ceiling 85, sensitivity 1.05. Hottest host predicted 74.5 at supply
	// 18: headroom = 10.5/1.05 = 10.
	preds := map[string]float64{"a": 60, "b": 74.5, "c": 70}
	got, err := OptimizeSetpoint(preds, 18)
	if err != nil {
		t.Fatal(err)
	}
	// 18 + 10 = 28 clamps to maxSupplyC 27.
	if got != 27 {
		t.Errorf("setpoint = %v, want clamp at 27", got)
	}
	// A hotter host stays below the clamp.
	preds["b"] = 81.5
	got, err = OptimizeSetpoint(preds, 18)
	if err != nil {
		t.Fatal(err)
	}
	want := 18 + (85-81.5)/1.05
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("setpoint = %v, want %v", got, want)
	}
}

func TestOptimizeSetpointClampsLow(t *testing.T) {
	// A host already over the ceiling forces the minimum supply.
	preds := map[string]float64{"hot": 95}
	got, err := OptimizeSetpoint(preds, 18)
	if err != nil {
		t.Fatal(err)
	}
	if got != minSupplyC {
		t.Errorf("setpoint = %v, want clamp at %v", got, minSupplyC)
	}
}

func TestOptimizeSetpointErrors(t *testing.T) {
	if _, err := OptimizeSetpoint(nil, 18); err == nil {
		t.Error("empty predictions should fail")
	}
}

func TestCompareAndSavings(t *testing.T) {
	rep, err := Compare(10000, 15, 25)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OptimizedPowerW >= rep.BaselinePowerW {
		t.Error("optimization should reduce power")
	}
	if s := rep.SavingsFrac(); s <= 0 || s >= 1 {
		t.Errorf("savings = %v", s)
	}
	if _, err := Compare(-5, 15, 25); err == nil {
		t.Error("negative heat should fail")
	}
}

func TestSavingsFracZeroBaseline(t *testing.T) {
	if (Report{}).SavingsFrac() != 0 {
		t.Error("zero baseline should give zero savings")
	}
}

func TestHostHeat(t *testing.T) {
	h, err := HostHeat(55, 165, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if h != 110 {
		t.Errorf("heat = %v, want 110", h)
	}
	// Clamping.
	lo, _ := HostHeat(55, 165, -1)
	hi, _ := HostHeat(55, 165, 2)
	if lo != 55 || hi != 165 {
		t.Errorf("clamped heats = %v, %v", lo, hi)
	}
	if _, err := HostHeat(-1, 100, 0.5); err == nil {
		t.Error("negative idle should fail")
	}
	if _, err := HostHeat(100, 50, 0.5); err == nil {
		t.Error("max below idle should fail")
	}
}

func TestSumHeatDeterministicOrder(t *testing.T) {
	total, entries := SumHeat(map[string]float64{"z": 10, "a": 20, "m": 5})
	if total != 35 {
		t.Errorf("total = %v", total)
	}
	if entries[0].HostID != "a" || entries[1].HostID != "m" || entries[2].HostID != "z" {
		t.Error("entries not sorted")
	}
}

// Property: cooling power is monotone decreasing in supply temperature for
// any non-negative heat within plant bounds.
func TestCoolingPowerMonotoneProperty(t *testing.T) {
	f := func(heat, s1, s2 float64) bool {
		heat = math.Abs(heat)
		if math.IsNaN(heat) || math.IsInf(heat, 0) || heat > 1e9 {
			return true
		}
		lo := 10 + math.Mod(math.Abs(s1), 10) // [10, 20)
		hi := lo + 0.1 + math.Mod(math.Abs(s2), 10)
		p1, err1 := CoolingPower(heat, lo)
		p2, err2 := CoolingPower(heat, hi)
		if err1 != nil || err2 != nil {
			return false
		}
		return p2 <= p1+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
