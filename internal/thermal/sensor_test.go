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
	if _, err := NewSensor(DefaultSensorParams(), nil, rng, 0); err == nil {
		t.Error("nil source accepted")
	}
	if _, err := NewSensor(DefaultSensorParams(), func() float64 { return 0 }, nil, 0); err == nil {
		t.Error("nil rng accepted")
	}
	if _, err := NewSensor(SensorParams{NoiseStdC: -1}, func() float64 { return 0 }, rng, 0); err == nil {
		t.Error("invalid params accepted")
	}
	if _, err := NewSensor(DefaultSensorParams(), func() float64 { return 0 }, rng, -1); err == nil {
		t.Error("negative stagger accepted")
	}
}

func TestNoiseFreeSensorIsExact(t *testing.T) {
	s, err := NewSensor(SensorParams{}, func() float64 { return 55.25 }, mathx.NewRNG(1), 0)
	if err != nil {
		t.Fatal(err)
	}
	if v := s.Read(); v != 55.25 {
		t.Errorf("Read = %v, want 55.25", v)
	}
}

func TestQuantization(t *testing.T) {
	s, err := NewSensor(SensorParams{QuantizationC: 0.5}, func() float64 { return 41.3 }, mathx.NewRNG(1), 0)
	if err != nil {
		t.Fatal(err)
	}
	if v := s.Read(); v != 41.5 {
		t.Errorf("quantized read = %v, want 41.5", v)
	}
}

func TestNoiseStatistics(t *testing.T) {
	s, err := NewSensor(SensorParams{NoiseStdC: 0.8}, func() float64 { return 60 }, mathx.NewRNG(7), 0)
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
	sensor, err := NewSensor(DefaultSensorParams(), srv.DieTemp, mathx.NewRNG(9), 0)
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

// TestSensorNoiseBatchMatchesPerRead pins the batched read noise to the
// per-read draws it replaced: at every stagger, with and without
// quantization, each reading equals bit for bit the source plus one
// rng.Normal call per read, over a read count that ends mid-batch.
func TestSensorNoiseBatchMatchesPerRead(t *testing.T) {
	const reads = 5*noiseBatch + 7
	for _, quant := range []float64{0, 0.25} {
		params := SensorParams{NoiseStdC: 0.4, QuantizationC: quant}
		for stagger := 0; stagger < noiseBatch; stagger++ {
			temp := 40.0
			source := func() float64 { temp += 0.37; return temp }
			s, err := NewSensor(params, source, mathx.NewRNG(int64(100+stagger)), stagger)
			if err != nil {
				t.Fatal(err)
			}
			ref := mathx.NewRNG(int64(100 + stagger))
			refTemp := 40.0
			for i := 0; i < reads; i++ {
				refTemp += 0.37
				want := refTemp
				want += ref.Normal(0, params.NoiseStdC)
				if quant > 0 {
					want = math.Round(want/quant) * quant
				}
				if got := s.Read(); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("quant %v stagger %d read %d: %v, want %v", quant, stagger, i, got, want)
				}
			}
		}
	}

	// The stagger sets when the draws happen: a sensor built at stagger p
	// draws noiseBatch − p values up front, none while it reads them, and
	// the next noiseBatch at the read after. Peeking at the sensor's own
	// generator shows where it stands.
	for stagger := 0; stagger < noiseBatch; stagger++ {
		rng := mathx.NewRNG(11)
		s, err := NewSensor(SensorParams{NoiseStdC: 1}, func() float64 { return 0 }, rng, stagger+noiseBatch)
		if err != nil {
			t.Fatal(err)
		}
		ahead := noiseBatch - stagger // values the constructor drew
		for i := 0; i <= ahead; i++ {
			s.Read() // the last read refills
		}
		ref := mathx.NewRNG(11)
		for i := 0; i < ahead+noiseBatch; i++ {
			ref.Normal(0, 1)
		}
		if got, want := rng.Normal(0, 1), ref.Normal(0, 1); got != want {
			t.Fatalf("stagger %d: after %d reads the generator is not %d draws in", stagger, ahead+1, ahead+noiseBatch)
		}
	}

	// A noise-free sensor draws nothing: its generator still starts where a
	// fresh one with the same seed does.
	rng := mathx.NewRNG(5)
	s, err := NewSensor(SensorParams{QuantizationC: 0.25}, func() float64 { return 50.1 }, rng, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < reads; i++ {
		if v := s.Read(); v != 50 {
			t.Fatalf("noise-free read %d = %v, want 50", i, v)
		}
	}
	if got, want := rng.Normal(0, 1), mathx.NewRNG(5).Normal(0, 1); got != want {
		t.Errorf("noise-free sensor drew from its rng: next draw %v, fresh %v", got, want)
	}
}
