package fleet

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"vmtherm/internal/thermal"
)

// TestConfigRejectsNonFiniteFloats sets every float field of Config —
// those of the embedded substrate.Config included — and the admission
// policy's headroom budget to NaN, +Inf and −Inf in turn:
// Validate must refuse each one. NaN fails every comparison, so range
// checks alone let it through (a NaN update interval never ends a simulator
// advance; a NaN anchor bucket puts every load into one bucket).
func TestConfigRejectsNonFiniteFloats(t *testing.T) {
	base, _, err := DefaultConfig().resolve(true)
	if err != nil {
		t.Fatal(err)
	}
	fields := map[string]func(*Config) *float64{
		"Admission.HeadroomBudgetC": func(c *Config) *float64 { return &c.Admission.HeadroomBudgetC },
	}
	// VisibleFields walks into embedded structs, so the substrate's floats
	// (rack spread, tick, sample interval) are covered under their promoted
	// names.
	for _, f := range reflect.VisibleFields(reflect.TypeOf(base)) {
		if f.Type.Kind() == reflect.Float64 {
			index := f.Index
			fields[f.Name] = func(c *Config) *float64 {
				return reflect.ValueOf(c).Elem().FieldByIndex(index).Addr().Interface().(*float64)
			}
		}
	}
	if len(fields) < 12 {
		t.Fatalf("found %d float fields", len(fields))
	}
	for _, name := range []string{"RackSpreadC", "TickS", "SampleS"} {
		if fields[name] == nil {
			t.Fatalf("the walk missed the substrate's %s", name)
		}
	}
	for name, field := range fields {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			c := base
			*field(&c) = v
			if err := c.Validate(); err == nil {
				t.Errorf("%s = %v accepted", name, v)
			}
		}
	}
}

// TestNewNamesBadPhysicsField: a non-finite field of the sensor template
// fails New before a 4,096-host fleet is built, and the error
// names the field.
func TestNewNamesBadPhysicsField(t *testing.T) {
	for _, tc := range []struct {
		field  string
		mutate func(*Config)
	}{
		{"SensorParams.QuantizationC", func(c *Config) { c.Sensor.QuantizationC = math.NaN() }},
	} {
		cfg := DefaultConfig()
		cfg.Racks, cfg.HostsPerRack = 64, 64
		cfg.Sensor = thermal.DefaultSensorParams()
		tc.mutate(&cfg)
		if _, err := New(cfg, Predictor{}); err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%s: New = %v, want an error naming it", tc.field, err)
		}
	}
}
