package thermal

import (
	"math"
	"testing"
)

func TestNewFanBankValidation(t *testing.T) {
	if _, err := NewFanBank(-1, 1, 1); err == nil {
		t.Error("negative count should fail")
	}
	if _, err := NewFanBank(4, 0, 1); err == nil {
		t.Error("zero base conductance should fail")
	}
	if _, err := NewFanBank(4, 1, -1); err == nil {
		t.Error("negative per-fan conductance should fail")
	}
	b, err := NewFanBank(4, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if b.Count() != 4 || b.Airflow() != 4 {
		t.Errorf("Count=%d Airflow=%v, want 4 healthy fans", b.Count(), b.Airflow())
	}
}

func TestAirflowFullSpeedHealthy(t *testing.T) {
	b, _ := NewFanBank(4, 1, 2)
	if got := b.Airflow(); got != 4 {
		t.Errorf("Airflow = %v, want 4", got)
	}
}

func TestAirflowStates(t *testing.T) {
	b, _ := NewFanBank(4, 1, 2)
	if err := b.Fail(0); err != nil {
		t.Fatal(err)
	}
	// 0 (failed) + 1 + 1 + 1 = 3
	if got := b.Airflow(); got != 3 {
		t.Errorf("Airflow = %v, want 3", got)
	}
	if err := b.Fail(0); err != nil {
		t.Fatal(err)
	}
	if got := b.Airflow(); got != 3 {
		t.Errorf("Airflow after failing a failed fan = %v, want 3", got)
	}
}

func TestOutOfRangeFanOps(t *testing.T) {
	b, _ := NewFanBank(1, 1, 2)
	if err := b.Fail(5); err == nil {
		t.Error("Fail out of range should error")
	}
	if err := b.Fail(-1); err == nil {
		t.Error("Fail(-1) should error")
	}
}

func TestConductanceDiminishingReturns(t *testing.T) {
	b4, _ := NewFanBank(4, 1, 2)
	b8, _ := NewFanBank(8, 1, 2)
	g4 := b4.Conductance() // 1 + 2*2 = 5
	g8 := b8.Conductance() // 1 + 2*2.828 = 6.657
	if math.Abs(g4-5) > 1e-9 {
		t.Errorf("G(4 fans) = %v, want 5", g4)
	}
	if g8-g4 >= g4-1 {
		t.Error("doubling fans should add less than the first four did")
	}
}

func TestConductanceZeroFans(t *testing.T) {
	b, _ := NewFanBank(0, 0.9, 2)
	if got := b.Conductance(); got != 0.9 {
		t.Errorf("natural convection only = %v, want 0.9", got)
	}
}
