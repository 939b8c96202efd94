package thermal

import (
	"math"
	"testing"
)

// refServer places the reference server as the substrate's default slot
// does: four fans in 22 °C air.
var refServer = ServerParams{FanCount: 4, AmbientC: 22}

func newTestServer(t *testing.T) *Server {
	t.Helper()
	s, err := NewServer(refServer)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestServerParamsValidate(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*ServerParams)
	}{
		{"negative fans", func(p *ServerParams) { p.FanCount = -2 }},
		{"NaN ambient", func(p *ServerParams) { p.AmbientC = math.NaN() }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			p := refServer
			tt.mutate(&p)
			if _, err := NewServer(p); err == nil {
				t.Error("NewServer accepted invalid params")
			}
		})
	}
}

func TestColdServerStartsAtAmbient(t *testing.T) {
	s := newTestServer(t)
	if s.DieTemp() != 22 || s.CaseTemp() != 22 {
		t.Errorf("cold server die %v case %v, want ambient 22", s.DieTemp(), s.CaseTemp())
	}
}

func TestIdleServerSettlesWarm(t *testing.T) {
	s := newTestServer(t)
	s.SetLoad(0, 0)
	for i := 0; i < 1800; i++ {
		if err := s.Advance(1); err != nil {
			t.Fatal(err)
		}
	}
	// Idle ≈55 W through ≈0.4 K/W → high 30s to high 40s °C.
	if s.DieTemp() < 35 || s.DieTemp() > 55 {
		t.Errorf("idle die temp = %v °C, want 35–55", s.DieTemp())
	}
	if s.DieTemp() <= s.CaseTemp() {
		t.Error("die must run hotter than case under load")
	}
}

func TestFullLoadHotButBelowThrottleWith4Fans(t *testing.T) {
	s := newTestServer(t)
	s.SetLoad(1, 0.5)
	for i := 0; i < 2400; i++ {
		if err := s.Advance(1); err != nil {
			t.Fatal(err)
		}
	}
	if s.DieTemp() < 75 || s.DieTemp() > 96 {
		t.Errorf("full-load die temp = %v °C, want 75–96 with 4 fans", s.DieTemp())
	}
	if s.EffectiveUtil() < 1 {
		t.Error("4-fan full load should not throttle")
	}
}

func TestSettlesWithinBreakTime(t *testing.T) {
	// The paper's t_break = 600 s: by then temperature must be within a
	// degree of its final value.
	s := newTestServer(t)
	s.SetLoad(0.7, 0.3)
	for i := 0; i < 600; i++ {
		if err := s.Advance(1); err != nil {
			t.Fatal(err)
		}
	}
	at600 := s.DieTemp()
	for i := 0; i < 2400; i++ {
		if err := s.Advance(1); err != nil {
			t.Fatal(err)
		}
	}
	final := s.DieTemp()
	if math.Abs(final-at600) > 1.0 {
		t.Errorf("temp at 600 s (%v) differs from final (%v) by > 1 °C", at600, final)
	}
}

func TestMoreFansRunCooler(t *testing.T) {
	temps := map[int]float64{}
	for _, fans := range []int{2, 4, 8} {
		s, err := NewServer(ServerParams{FanCount: fans, AmbientC: 22})
		if err != nil {
			t.Fatal(err)
		}
		s.SetLoad(0.8, 0.4)
		temps[fans] = s.SteadyStateDieTemp(0.8, 0.4)
	}
	if !(temps[2] > temps[4] && temps[4] > temps[8]) {
		t.Errorf("steady temps not decreasing in fan count: %v", temps)
	}
}

func TestHotterAmbientRaisesTemp(t *testing.T) {
	s := newTestServer(t)
	cool := s.SteadyStateDieTemp(0.5, 0.2)
	s.SetAmbient(32)
	warm := s.SteadyStateDieTemp(0.5, 0.2)
	// 10 °C ambient rise lifts the die by ~10 °C (slightly more with leakage).
	if diff := warm - cool; diff < 9 || diff > 13 {
		t.Errorf("ambient +10 °C moved die by %v °C, want ≈10", diff)
	}
}

func TestFanFailureHeatsServer(t *testing.T) {
	s := newTestServer(t)
	before := s.SteadyStateDieTemp(0.8, 0.3)
	if err := s.Fans().Fail(0); err != nil {
		t.Fatal(err)
	}
	if err := s.Fans().Fail(1); err != nil {
		t.Fatal(err)
	}
	after := s.SteadyStateDieTemp(0.8, 0.3)
	if after <= before+2 {
		t.Errorf("losing 2 of 4 fans should heat the die: %v -> %v", before, after)
	}
}

func TestTransientApproachesSteadyState(t *testing.T) {
	s := newTestServer(t)
	want := s.SteadyStateDieTemp(0.6, 0.2)
	s.SetLoad(0.6, 0.2)
	for i := 0; i < 3600; i++ {
		if err := s.Advance(1); err != nil {
			t.Fatal(err)
		}
	}
	if diff := math.Abs(s.DieTemp() - want); diff > 0.2 {
		t.Errorf("transient (%v) vs steady-state solver (%v): diff %v", s.DieTemp(), want, diff)
	}
}

func TestThrottleEngagesWithMinimalCooling(t *testing.T) {
	// With a single fan, an unthrottled full load would settle near 128 °C;
	// the throttle must cap utilization and hold the die near the limit.
	s, err := NewServer(ServerParams{FanCount: 1, AmbientC: 22})
	if err != nil {
		t.Fatal(err)
	}
	s.SetLoad(1, 1)
	throttled := false
	for i := 0; i < 3600; i++ {
		throttled = throttled || s.EffectiveUtil() < 1
		if err := s.Advance(1); err != nil {
			t.Fatal(err)
		}
	}
	if !throttled {
		t.Error("single-fan full-load server never throttled")
	}
	// Throttling must hold the die near the limit rather than diverging.
	if s.DieTemp() > throttleTempC+12 {
		t.Errorf("die ran away to %v °C despite throttle at %v", s.DieTemp(), throttleTempC)
	}
	if s.EffectiveUtil() >= 1 {
		t.Error("effective utilization should be capped while throttling")
	}
}

func TestLoadClamping(t *testing.T) {
	s := newTestServer(t)
	s.SetLoad(1.7, -0.4)
	if s.util != 1 || s.memFrac != 0 {
		t.Errorf("load = (%v, %v), want clamped (1, 0)", s.util, s.memFrac)
	}
}

func TestHigherLoadHigherSteadyTemp(t *testing.T) {
	s := newTestServer(t)
	prev := -1000.0
	for _, u := range []float64{0, 0.25, 0.5, 0.75, 1} {
		st := s.SteadyStateDieTemp(u, 0)
		if st <= prev {
			t.Errorf("steady temp not increasing at u=%v: %v <= %v", u, st, prev)
		}
		prev = st
	}
}
