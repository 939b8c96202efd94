package core

import (
	"math"
	"testing"

	"vmtherm/internal/mathx"
)

func TestNewDriftDetectorValidation(t *testing.T) {
	if _, err := NewDriftDetector(1, 1); err == nil {
		t.Error("window 1 should fail")
	}
	if _, err := NewDriftDetector(10, 0); err == nil {
		t.Error("zero threshold should fail")
	}
	if _, err := NewDriftDetector(10, 1.5); err != nil {
		t.Error(err)
	}
}

func TestNoDriftOnAccuratePredictions(t *testing.T) {
	d, err := NewDriftDetector(20, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	g := mathx.NewRNG(1)
	for i := 0; i < 200; i++ {
		actual := 60 + g.Normal(0, 0.4)
		if d.Observe(60, actual) {
			t.Fatalf("false drift at observation %d (window MSE %v)", i, d.WindowMSE())
		}
	}
}

func TestDriftDetectedOnBias(t *testing.T) {
	d, err := NewDriftDetector(20, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	g := mathx.NewRNG(2)
	// Healthy phase.
	for i := 0; i < 50; i++ {
		d.Observe(60, 60+g.Normal(0, 0.3))
	}
	if d.Drifted() {
		t.Fatal("drifted during healthy phase")
	}
	// Fans degrade: reality runs 3 °C hotter than the model.
	tripped := -1
	for i := 0; i < 40; i++ {
		if d.Observe(60, 63+g.Normal(0, 0.3)) {
			tripped = i
			break
		}
	}
	if tripped < 0 {
		t.Fatal("3 °C bias never detected")
	}
	// Must trip within roughly half a window: 9 (MSE crosses 1.0 once
	// ~1/9 of the window holds ~9°² residuals) — allow the full window.
	if tripped > 20 {
		t.Errorf("detection took %d observations, want <= window", tripped)
	}
}

func TestColdStartCannotTrip(t *testing.T) {
	d, err := NewDriftDetector(10, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	// Giant errors, but fewer than a window.
	for i := 0; i < 9; i++ {
		if d.Observe(0, 100) {
			t.Fatal("drift declared before window filled")
		}
	}
	if !d.Observe(0, 100) {
		t.Error("full window of huge errors should drift")
	}
}

func TestWindowMSEAndReset(t *testing.T) {
	d, err := NewDriftDetector(4, 100)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(d.WindowMSE()) {
		t.Error("empty detector should report NaN MSE")
	}
	d.Observe(10, 12) // 4
	d.Observe(10, 10) // 0
	if got := d.WindowMSE(); got != 2 {
		t.Errorf("partial window MSE = %v, want 2", got)
	}
	d.Observe(10, 13) // 9
	d.Observe(10, 11) // 1
	if got := d.WindowMSE(); got != 3.5 {
		t.Errorf("full window MSE = %v, want 3.5", got)
	}
	// Ring rollover replaces the oldest (4): (0+9+1+16)/4 = 6.5.
	d.Observe(10, 14)
	if got := d.WindowMSE(); got != 6.5 {
		t.Errorf("rolled window MSE = %v, want 6.5", got)
	}
	d.Reset()
	if d.Drifted() || !math.IsNaN(d.WindowMSE()) {
		t.Error("Reset incomplete")
	}
}

func TestDriftRecoveryAfterRetrain(t *testing.T) {
	d, err := NewDriftDetector(10, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 15; i++ {
		d.Observe(60, 65) // badly drifted
	}
	if !d.Drifted() {
		t.Fatal("should be drifted")
	}
	d.Reset() // retrained
	for i := 0; i < 15; i++ {
		if d.Observe(65, 65.1) {
			t.Fatal("drift after retrain with good model")
		}
	}
}
