package thermal

import (
	"math"
	"testing"
)

func TestPowerEndpoints(t *testing.T) {
	// Below leakRefC, leakage adds nothing.
	if got := power(0, 0, 30); got != idleW {
		t.Errorf("idle power = %v, want %v", got, idleW)
	}
	if got := power(1, 0, 30); math.Abs(got-maxW) > 1e-9 {
		t.Errorf("full power = %v, want %v", got, maxW)
	}
	if got := power(1, 1, 30); math.Abs(got-(maxW+memMaxW)) > 1e-9 {
		t.Errorf("full+mem power = %v, want %v", got, maxW+memMaxW)
	}
}

func TestPowerMonotoneInUtil(t *testing.T) {
	prev := power(0, 0, 40)
	for u := 0.05; u <= 1.0; u += 0.05 {
		cur := power(u, 0, 40)
		if cur < prev {
			t.Fatalf("power not monotone at u=%v: %v < %v", u, cur, prev)
		}
		prev = cur
	}
}

func TestPowerClampsInputs(t *testing.T) {
	if power(-1, 0, 40) != power(0, 0, 40) {
		t.Error("util below 0 not clamped")
	}
	if power(2, 0.5, 40) != power(1, 0.5, 40) {
		t.Error("util above 1 not clamped")
	}
	if power(0.5, -3, 40) != power(0.5, 0, 40) {
		t.Error("mem below 0 not clamped")
	}
}

func TestLeakageAddsAboveReference(t *testing.T) {
	below := power(0.5, 0, leakRefC-10)
	at := power(0.5, 0, leakRefC)
	above := power(0.5, 0, leakRefC+10)
	if below != at {
		t.Error("leakage applied below reference temperature")
	}
	if want := at + 10*leakWPerK; math.Abs(above-want) > 1e-9 {
		t.Errorf("leakage at +10K = %v, want %v", above, want)
	}
}

func TestSuperlinearUtilCurve(t *testing.T) {
	mid := power(0.5, 0, 30) - idleW // exponent 1.25 > 1
	full := power(1, 0, 30) - idleW
	if mid >= full/2 {
		t.Errorf("superlinear curve expected: mid %v vs full/2 %v", mid, full/2)
	}
}
