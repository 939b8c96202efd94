package thermal

import (
	"errors"
	"math"
	"testing"

	"vmtherm/internal/mathx"
)

func TestSensorParamsValidate(t *testing.T) {
	tests := []struct {
		name   string
		params SensorParams
		ok     bool
	}{
		{"default", DefaultSensorParams(), true},
		{"noise-free", SensorParams{}, true},
		{"negative noise", SensorParams{NoiseStdC: -1}, false},
		{"negative quant", SensorParams{QuantizationC: -0.5}, false},
		{"fail prob 1", SensorParams{FailProb: 1}, false},
		{"fail prob negative", SensorParams{FailProb: -0.1}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.params.Validate()
			if (err == nil) != tt.ok {
				t.Errorf("Validate() = %v, ok %v", err, tt.ok)
			}
		})
	}
}

func TestNewSensorRejectsNilArgs(t *testing.T) {
	rng := mathx.NewRNG(1)
	if _, err := NewSensor(DefaultSensorParams(), nil, rng); err == nil {
		t.Error("nil source accepted")
	}
	if _, err := NewSensor(DefaultSensorParams(), func() float64 { return 0 }, nil); err == nil {
		t.Error("nil rng accepted")
	}
	if _, err := NewSensor(SensorParams{NoiseStdC: -1}, func() float64 { return 0 }, rng); err == nil {
		t.Error("invalid params accepted")
	}
}

func TestNoiseFreeSensorIsExact(t *testing.T) {
	s, err := NewSensor(SensorParams{}, func() float64 { return 55.25 }, mathx.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	v, err := s.Read()
	if err != nil {
		t.Fatal(err)
	}
	if v != 55.25 {
		t.Errorf("Read = %v, want 55.25", v)
	}
}

func TestBiasApplied(t *testing.T) {
	s, err := NewSensor(SensorParams{BiasC: 2}, func() float64 { return 50 }, mathx.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	v, _ := s.Read()
	if v != 52 {
		t.Errorf("biased read = %v, want 52", v)
	}
}

func TestQuantization(t *testing.T) {
	s, err := NewSensor(SensorParams{QuantizationC: 0.5}, func() float64 { return 41.3 }, mathx.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	v, _ := s.Read()
	if v != 41.5 {
		t.Errorf("quantized read = %v, want 41.5", v)
	}
}

func TestNoiseStatistics(t *testing.T) {
	s, err := NewSensor(SensorParams{NoiseStdC: 0.8}, func() float64 { return 60 }, mathx.NewRNG(7))
	if err != nil {
		t.Fatal(err)
	}
	var sum, sumSq float64
	const n = 20000
	for i := 0; i < n; i++ {
		v, err := s.Read()
		if err != nil {
			t.Fatal(err)
		}
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	if math.Abs(mean-60) > 0.05 {
		t.Errorf("noisy mean = %v, want ~60", mean)
	}
	if std := math.Sqrt((sumSq - n*mean*mean) / (n - 1)); math.Abs(std-0.8) > 0.05 {
		t.Errorf("noisy std = %v, want ~0.8", std)
	}
}

func TestTransientFailures(t *testing.T) {
	s, err := NewSensor(SensorParams{FailProb: 0.3}, func() float64 { return 60 }, mathx.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	fails := 0
	for i := 0; i < 10000; i++ {
		if _, err := s.Read(); err != nil {
			if !errors.Is(err, ErrSensorRead) {
				t.Fatalf("unexpected error type: %v", err)
			}
			fails++
		}
	}
	frac := float64(fails) / 10000
	if math.Abs(frac-0.3) > 0.03 {
		t.Errorf("failure rate = %v, want ~0.3", frac)
	}
}

func TestSensorOnServer(t *testing.T) {
	srv := newTestServer(t)
	srv.SetLoad(0.5, 0.2)
	sensor, err := NewSensor(DefaultSensorParams(), srv.DieTemp, mathx.NewRNG(9))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1200; i++ {
		if err := srv.Advance(1); err != nil {
			t.Fatal(err)
		}
	}
	v, err := sensor.Read()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v-srv.DieTemp()) > 2 {
		t.Errorf("sensor read %v far from die %v", v, srv.DieTemp())
	}
}
