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

// Sensor observes a temperature source through an error model. It is the
// only view of the simulator the predictors get.
type Sensor struct {
	params SensorParams
	source func() float64
	rng    *mathx.RNG
}

// NewSensor wraps source with the given error model. rng must not be shared
// with other components that need independent streams.
func NewSensor(params SensorParams, source func() float64, rng *mathx.RNG) (*Sensor, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if source == nil {
		return nil, fmt.Errorf("thermal: nil sensor source")
	}
	if rng == nil {
		return nil, fmt.Errorf("thermal: nil sensor rng")
	}
	return &Sensor{params: params, source: source, rng: rng}, nil
}

// Read returns one observation.
func (s *Sensor) Read() float64 {
	v := s.source()
	if s.params.NoiseStdC > 0 {
		v += s.rng.Normal(0, s.params.NoiseStdC)
	}
	if q := s.params.QuantizationC; q > 0 {
		v = math.Round(v/q) * q
	}
	return v
}
