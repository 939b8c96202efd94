package thermal

import (
	"math"
	"testing"
)

func TestNewFanBankValidation(t *testing.T) {
	if _, err := newFanBank(-1); err == nil {
		t.Error("negative count should fail")
	}
	b, err := newFanBank(4)
	if err != nil {
		t.Fatal(err)
	}
	if b.Count() != 4 || b.Airflow() != 4 {
		t.Errorf("Count=%d Airflow=%v, want 4 healthy fans", b.Count(), b.Airflow())
	}
}

func TestAirflowFullSpeedHealthy(t *testing.T) {
	b, _ := newFanBank(4)
	if got := b.Airflow(); got != 4 {
		t.Errorf("Airflow = %v, want 4", got)
	}
}

func TestAirflowStates(t *testing.T) {
	b, _ := newFanBank(4)
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
	b, _ := newFanBank(1)
	if err := b.Fail(5); err == nil {
		t.Error("Fail out of range should error")
	}
	if err := b.Fail(-1); err == nil {
		t.Error("Fail(-1) should error")
	}
}

func TestConductanceDiminishingReturns(t *testing.T) {
	b4, _ := newFanBank(4)
	b8, _ := newFanBank(8)
	g4 := b4.Conductance() // 0.9 + 1.8*2 = 4.5
	g8 := b8.Conductance() // 0.9 + 1.8*2.828 = 5.991
	if math.Abs(g4-4.5) > 1e-9 {
		t.Errorf("G(4 fans) = %v, want 4.5", g4)
	}
	if g8-g4 >= g4-baseCaseG {
		t.Error("doubling fans should add less than the first four did")
	}
}

func TestConductanceZeroFans(t *testing.T) {
	b, _ := newFanBank(0)
	if got := b.Conductance(); got != baseCaseG {
		t.Errorf("natural convection only = %v, want %v", got, baseCaseG)
	}
}
