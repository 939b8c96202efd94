package thermal

import (
	"fmt"
	"math"

	"vmtherm/internal/mathx"
)

// SensorParams configures a temperature sensor's error model.
type SensorParams struct {
	// NoiseStdC is the Gaussian read-noise standard deviation, °C. On-die
	// digital thermal sensors are typically within ±1 °C.
	NoiseStdC float64
	// QuantizationC rounds readings to this granularity (0 disables), e.g.
	// 0.5 for a half-degree DTS.
	QuantizationC float64
}

// DefaultSensorParams matches a commodity on-die digital thermal sensor.
func DefaultSensorParams() SensorParams {
	return SensorParams{NoiseStdC: 0.4, QuantizationC: 0.25}
}

// Validate checks the error-model parameters are finite and in range.
func (p SensorParams) Validate() error {
	if err := finite("SensorParams", []field{
		{"NoiseStdC", p.NoiseStdC}, {"QuantizationC", p.QuantizationC},
	}); err != nil {
		return err
	}
	if p.NoiseStdC < 0 {
		return fmt.Errorf("thermal: negative sensor noise %v", p.NoiseStdC)
	}
	if p.QuantizationC < 0 {
		return fmt.Errorf("thermal: negative quantization %v", p.QuantizationC)
	}
	return nil
}

// noiseBatch is how many read-noise values a sensor draws ahead at once.
// One refill walks the sensor's generator state while it is in cache;
// drawing per read would miss on it every sweep (about 5 KB per host).
const noiseBatch = 32

// Sensor observes a temperature source through an error model. It is the
// only view of the simulator the predictors get.
//
// A noisy sensor draws its read noise ahead, noiseBatch values at a time,
// into noise; noise[next:] are the values not yet read. Since the sensor
// owns its RNG, the values it reads are the ones per-read draws would give,
// in the same order: only when the draws happen moves.
type Sensor struct {
	params SensorParams
	source func() float64
	rng    *mathx.RNG
	noise  [noiseBatch]float64
	next   int
}

// NewSensor wraps source with the given error model. The sensor draws from
// rng ahead of its reads, so rng must be the sensor's own: a generator
// shared with anything else would see its stream reordered. stagger ≥ 0
// offsets the refills: the first batch holds noiseBatch − stagger mod
// noiseBatch values, so sensors built with consecutive staggers (a fleet
// passes each host's slot) refill in different reads instead of the same
// one.
func NewSensor(params SensorParams, source func() float64, rng *mathx.RNG, stagger int) (*Sensor, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if source == nil {
		return nil, fmt.Errorf("thermal: nil sensor source")
	}
	if rng == nil {
		return nil, fmt.Errorf("thermal: nil sensor rng")
	}
	if stagger < 0 {
		return nil, fmt.Errorf("thermal: negative sensor stagger %d", stagger)
	}
	s := &Sensor{params: params, source: source, rng: rng}
	if params.NoiseStdC > 0 {
		s.fill(stagger % noiseBatch)
	}
	return s, nil
}

// fill draws noise[from:] and makes it the unread values.
func (s *Sensor) fill(from int) {
	for i := from; i < noiseBatch; i++ {
		s.noise[i] = s.rng.Normal(0, s.params.NoiseStdC)
	}
	s.next = from
}

// Read returns one observation.
func (s *Sensor) Read() float64 {
	v := s.source()
	if s.params.NoiseStdC > 0 {
		if s.next == noiseBatch {
			s.fill(0)
		}
		v += s.noise[s.next]
		s.next++
	}
	if q := s.params.QuantizationC; q > 0 {
		v = math.Round(v/q) * q
	}
	return v
}
