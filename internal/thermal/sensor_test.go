package thermal

import (
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
	if v := s.Read(); v != 55.25 {
		t.Errorf("Read = %v, want 55.25", v)
	}
}

func TestQuantization(t *testing.T) {
	s, err := NewSensor(SensorParams{QuantizationC: 0.5}, func() float64 { return 41.3 }, mathx.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	if v := s.Read(); v != 41.5 {
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
		v := s.Read()
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
	if v := sensor.Read(); math.Abs(v-srv.DieTemp()) > 2 {
		t.Errorf("sensor read %v far from die %v", v, srv.DieTemp())
	}
}
