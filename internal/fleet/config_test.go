package fleet

import (
	"math"
	"reflect"
	"testing"
)

// TestConfigRejectsNonFiniteFloats sets every float field of Config — and
// the admission policy's headroom budget — to NaN, +Inf and −Inf in turn:
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
	typ := reflect.TypeOf(base)
	for i := 0; i < typ.NumField(); i++ {
		if typ.Field(i).Type.Kind() == reflect.Float64 {
			i := i
			fields[typ.Field(i).Name] = func(c *Config) *float64 {
				return reflect.ValueOf(c).Elem().Field(i).Addr().Interface().(*float64)
			}
		}
	}
	if len(fields) < 20 {
		t.Fatalf("found %d float fields", len(fields))
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
