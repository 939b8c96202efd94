package substrate

import (
	"fmt"
	"math"

	"vmtherm/internal/thermal"
)

// CRAC models the room cooling unit: it supplies air at SupplyC, and each
// rack's inlet warms with rack utilization through recirculation. Slot s of
// a rack whose hosts run at mean utilization u breathes
// SupplyC + RecircPerUtil·u plus the slot's offset (see Config.RackSpreadC).
// That is each server's δ_env.
type CRAC struct {
	// SupplyC is the supply-air setpoint, °C.
	SupplyC float64
	// RecircPerUtil is the inlet temperature rise at 100% rack utilization
	// caused by exhaust recirculation, °C.
	RecircPerUtil float64
}

// DefaultCRAC returns a typical raised-floor configuration.
func DefaultCRAC() CRAC {
	return CRAC{SupplyC: 18, RecircPerUtil: 6}
}

// Validate bounds the configured envelope; the comparisons are written so
// NaN fails them. Emergency dynamics (a failed CRAC whose supply runs away
// past 35 °C) live outside it by definition; the coupling loop that drives
// them owns their plausibility.
func (c CRAC) Validate() error {
	if !(c.SupplyC >= 5 && c.SupplyC <= 35) {
		return fmt.Errorf("fleet: supply temperature %v implausible", c.SupplyC)
	}
	if !(c.RecircPerUtil >= 0) || math.IsInf(c.RecircPerUtil, 1) {
		return fmt.Errorf("fleet: recirculation %v must be finite and >= 0", c.RecircPerUtil)
	}
	return nil
}

// Config is the simulated fleet's shape and physics; every host is the
// thermal package's reference server. Start from
// DefaultConfig; the fleet control plane's Config fills zero-valued physics
// fields from it, but not the shape or the seed.
type Config struct {
	// Racks × HostsPerRack is the fleet size.
	Racks, HostsPerRack int
	// Sensor is the telemetry error model.
	Sensor thermal.SensorParams
	// CRAC is the room cooling configuration.
	CRAC CRAC
	// RackSpreadC is the total inlet temperature spread from the bottom to
	// the top slot of a rack (top-of-rack slots ingest warmer air). Each
	// slot's offset is RackSpreadC · slot/(HostsPerRack−1), so the spread is
	// physical regardless of rack depth.
	RackSpreadC float64
	// TickS is the simulation step; SampleS the telemetry sampling interval.
	TickS, SampleS float64
	// Seed drives all stochastic components.
	Seed int64
}

// DefaultConfig is a 4-rack × 16-host fleet of the reference server under
// an 18 °C CRAC, ticking every second and sampling every 5 s.
func DefaultConfig() Config {
	return Config{
		Racks:        4,
		HostsPerRack: 16,
		Sensor:       thermal.DefaultSensorParams(),
		CRAC:         DefaultCRAC(),
		RackSpreadC:  4.5,
		TickS:        1,
		SampleS:      5,
		Seed:         1,
	}
}

// Validate checks the configuration, the sensor template included.
func (c Config) Validate() error {
	if c.Racks < 1 || c.HostsPerRack < 1 {
		return fmt.Errorf("fleet: fleet shape %d×%d invalid", c.Racks, c.HostsPerRack)
	}
	if err := c.CRAC.Validate(); err != nil {
		return err
	}
	return c.validatePhysics()
}

// validatePhysics checks every field but the shape and the CRAC. NaN fails
// every comparison, so it would pass the range checks (a NaN tick schedules
// ticks forever); no field gives an infinity a meaning either.
func (c Config) validatePhysics() error {
	for _, f := range [...]struct {
		name string
		v    float64
	}{{"rack spread", c.RackSpreadC}, {"tick", c.TickS}, {"sample interval", c.SampleS}} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("fleet: %s must be finite, got %v", f.name, f.v)
		}
	}
	// Checked once here, so a bad template is named before New builds a
	// sensor per host from it.
	if err := c.Sensor.Validate(); err != nil {
		return fmt.Errorf("fleet: sensor: %w", err)
	}
	if c.TickS <= 0 || c.SampleS <= 0 {
		return fmt.Errorf("fleet: tick %v and sample interval %v must be > 0", c.TickS, c.SampleS)
	}
	return nil
}
