package thermal

import (
	"math"
	"math/rand/v2"
	"reflect"
	"strings"
	"testing"
)

// network is the generic lumped-RC integrator the Server's two-node step
// replaced, kept as that step's reference: nodes with a heat capacitance
// (0 marks a fixed-temperature boundary), conductance edges, and the
// explicit-Euler sub-step loop with its stable-step rule, operation for
// operation. Its products are rounded before their sums as the Server's
// are, so the reference holds under a compiler that fuses multiply-adds.
type network struct {
	capacitance, temp, flux []float64
	edges                   []netEdge
}

type netEdge struct {
	a, b int
	g    float64
}

// maxStableStep is a quarter of the smallest C/ΣG among internal nodes, at
// least 1 ms.
func (n *network) maxStableStep() float64 {
	gTotal := make([]float64, len(n.temp))
	for _, e := range n.edges {
		gTotal[e.a] += e.g
		gTotal[e.b] += e.g
	}
	minTau := math.Inf(1)
	for i, c := range n.capacitance {
		if c == 0 || gTotal[i] == 0 {
			continue
		}
		if tau := c / gTotal[i]; tau < minTau {
			minTau = tau
		}
	}
	if math.IsInf(minTau, 1) {
		return 1
	}
	return math.Max(minTau/4, 1e-3)
}

// stepOne integrates dt seconds with watts entering at node.
func (n *network) stepOne(dt float64, node int, watts float64) {
	steps := int(math.Ceil(dt / n.maxStableStep()))
	if steps < 1 {
		steps = 1
	}
	h := dt / float64(steps)
	for s := 0; s < steps; s++ {
		for i := range n.flux {
			n.flux[i] = 0
		}
		for _, e := range n.edges {
			q := float64(e.g * (n.temp[e.a] - n.temp[e.b]))
			n.flux[e.a] -= q
			n.flux[e.b] += q
		}
		n.flux[node] += watts
		for i := range n.temp {
			if n.capacitance[i] == 0 {
				continue
			}
			n.temp[i] += float64(h*n.flux[i]) / n.capacitance[i]
		}
	}
}

// netServer is the Server as it was built on the generic network: die 0,
// case 1, ambient 2, the case→ambient edge reset from the fan bank and the
// heat from power on every Advance.
type netServer struct {
	fans      *FanBank
	net       network
	util, mem float64
}

func newNetServer(t *testing.T, p ServerParams) *netServer {
	t.Helper()
	fans, err := newFanBank(p.FanCount)
	if err != nil {
		t.Fatal(err)
	}
	return &netServer{fans: fans, net: network{
		capacitance: []float64{dieCapacitance, caseCapacitance, 0},
		temp:        []float64{p.AmbientC, p.AmbientC, p.AmbientC},
		flux:        make([]float64, 3),
		edges:       []netEdge{{0, 1, dieToCaseG}, {1, 2, fans.Conductance()}},
	}}
}

func (r *netServer) advance(dt float64) {
	r.net.edges[1].g = r.fans.Conductance()
	u, die := r.util, r.net.temp[0]
	if over := die - throttleTempC; over > 0 {
		if limit := clamp01(1 - 0.1*over); limit < u {
			u = limit
		}
	}
	r.net.stepOne(dt, 0, power(u, r.mem, die))
}

// TestTwoNodeStepMatchesNetwork: servers driven through seeded sequences —
// dt from half a second to a minute (several sub-steps above the default
// 6.36 s), fan failures that move the sub-step, loads that throttle, ±0 and
// out-of-range loads, ambient changes — keep die and case temperatures
// bit-identical, every step, to the generic network they were built on. A
// bank of 27 or more fans makes the case time constant the shorter one, so
// the fans set the sub-step; one or two fans make full load throttle.
func TestTwoNodeStepMatchesNetwork(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 38))
	var throttled, multi, subMoves, zeros int
	for trial := 0; trial < 24; trial++ {
		p := ServerParams{FanCount: 1 + rng.IntN(40), AmbientC: 22}
		s, err := NewServer(p)
		if err != nil {
			t.Fatal(err)
		}
		ref := newNetServer(t, p)
		util, mem := 0.0, 0.0
		for step := 0; step < 600; step++ {
			switch rng.IntN(10) {
			case 0, 1, 2:
				util = []float64{0, math.Copysign(0, -1), 1, 1.7, -0.2, rng.Float64(), rng.Float64()}[rng.IntN(7)]
				mem = []float64{0, math.Copysign(0, -1), 1.3, rng.Float64()}[rng.IntN(4)]
			case 3:
				amb := 15 + 25*rng.Float64()
				s.SetAmbient(amb)
				ref.net.temp[2] = amb
			case 4, 5:
				fanOp(rng, s.Fans(), ref.fans)
			}
			if util == 0 {
				zeros++
			}
			s.SetLoad(util, mem)
			ref.util, ref.mem = clamp01(util), clamp01(mem)
			if s.EffectiveUtil() < s.util {
				throttled++
			}
			sub := s.sub
			dt := []float64{0.5, 1, 1, 5, 7, 15, 15, 60}[rng.IntN(8)]
			if err := s.Advance(dt); err != nil {
				t.Fatal(err)
			}
			ref.advance(dt)
			if s.sub != sub {
				subMoves++
			}
			if dt > s.sub {
				multi++
			}
			if math.Float64bits(s.DieTemp()) != math.Float64bits(ref.net.temp[0]) ||
				math.Float64bits(s.CaseTemp()) != math.Float64bits(ref.net.temp[1]) {
				t.Fatalf("trial %d step %d (dt %v, util %v): die %v case %v, network die %v case %v",
					trial, step, dt, util, s.DieTemp(), s.CaseTemp(), ref.net.temp[0], ref.net.temp[1])
			}
		}
	}
	t.Logf("%d throttled steps, %d multi-sub-step advances, %d sub-step moves, %d zero-load steps", throttled, multi, subMoves, zeros)
	if throttled == 0 || multi == 0 || subMoves == 0 || zeros == 0 {
		t.Fatal("the sequences missed a case they must cover")
	}
}

// TestStepValidation: Advance refuses a dt that is not finite and > 0, or
// whose sub-step count overflows an int, and leaves the state untouched.
func TestStepValidation(t *testing.T) {
	s := newTestServer(t)
	s.SetLoad(0.5, 0.5)
	for _, dt := range []float64{0, math.Copysign(0, -1), -1, math.NaN(), math.Inf(1), math.Inf(-1), 1e30, 1e300} {
		if err := s.Advance(dt); err == nil || !strings.Contains(err.Error(), "dt") {
			t.Errorf("Advance(%v) = %v, want an error naming dt", dt, err)
		}
		if s.DieTemp() != 22 || s.CaseTemp() != 22 {
			t.Fatalf("Advance(%v) moved the server to die %v case %v", dt, s.DieTemp(), s.CaseTemp())
		}
	}
	if err := s.Advance(1); err != nil {
		t.Fatal(err)
	}
}

// TestValidateNamesNonFiniteField: NaN, +Inf and −Inf in every float field
// of ServerParams and SensorParams are refused, and the error names the
// field.
func TestValidateNamesNonFiniteField(t *testing.T) {
	type validator interface{ Validate() error }
	var walk func(v reflect.Value, check func(string, *float64))
	walk = func(v reflect.Value, check func(string, *float64)) {
		for i := 0; i < v.NumField(); i++ {
			f, name := v.Field(i), v.Type().Field(i).Name
			switch f.Kind() {
			case reflect.Float64:
				check(v.Type().Name()+"."+name, f.Addr().Interface().(*float64))
			case reflect.Struct:
				walk(f, check)
			}
		}
	}
	for _, def := range []validator{refServer, DefaultSensorParams()} {
		checked := 0
		pv := reflect.New(reflect.TypeOf(def))
		pv.Elem().Set(reflect.ValueOf(def))
		walk(pv.Elem(), func(name string, f *float64) {
			checked++
			for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
				keep := *f
				*f = bad
				err := pv.Elem().Interface().(validator).Validate()
				*f = keep
				if err == nil || !strings.Contains(err.Error(), name) {
					t.Errorf("%s = %v: Validate() = %v, want an error naming %s", name, bad, err, name)
				}
			}
		})
		if checked < 1 {
			t.Fatalf("%T: no float field walked", def)
		}
	}
	p := refServer
	p.AmbientC = math.NaN()
	if _, err := NewServer(p); err == nil || !strings.Contains(err.Error(), "ServerParams.AmbientC") {
		t.Errorf("NewServer with a NaN ambient: %v", err)
	}
}

// linear is a reference server whose circuit is driven with a fixed heat,
// bypassing the power model, its leakage and the throttle: the circuit
// alone decides its temperatures.
type linear struct {
	*Server
	watts float64
}

func linearServer(t *testing.T, watts float64) linear {
	t.Helper()
	return linear{newTestServer(t), watts}
}

// Advance integrates dt seconds with l.watts entering at the die.
func (l linear) Advance(dt float64) error { return l.step(dt, l.fans.Conductance(), l.watts) }

// steady is the series circuit's answer: T_amb + P·(1/G_ca + 1/G_dc).
func (l linear) steady() float64 {
	return l.ambientC + l.watts*(1/l.fans.Conductance()+1/dieToCaseG)
}

// TestNoHeatStaysAtEquilibrium: with no heat and every node at ambient,
// nothing moves.
func TestNoHeatStaysAtEquilibrium(t *testing.T) {
	s := linearServer(t, 0)
	if err := s.Advance(1000); err != nil {
		t.Fatal(err)
	}
	if s.DieTemp() != 22 || s.CaseTemp() != 22 {
		t.Errorf("unheated server moved: die %v case %v", s.DieTemp(), s.CaseTemp())
	}
}

// TestTransientConvergesToAnalyticSteadyState: the integrated transient
// settles where the series circuit puts it, T_case = T_amb + P/G_ca and
// T_die = T_case + P/G_dc.
func TestTransientConvergesToAnalyticSteadyState(t *testing.T) {
	s := linearServer(t, 80)
	gca, gdc := s.Fans().Conductance(), dieToCaseG
	for i := 0; i < 5000; i++ {
		if err := s.Advance(1); err != nil {
			t.Fatal(err)
		}
	}
	if want := 22 + 80/gca + 80/gdc; math.Abs(s.DieTemp()-want) > 0.01 {
		t.Errorf("die steady = %v, want %v", s.DieTemp(), want)
	}
	if want := 22 + 80/gca; math.Abs(s.CaseTemp()-want) > 0.01 {
		t.Errorf("case steady = %v, want %v", s.CaseTemp(), want)
	}
}

// TestSteadyStateSolverMatchesAnalytic: SteadyStateDieTemp solves
// T = T_amb + P(T)·R, leakage included, and leaves the live temperatures
// alone.
func TestSteadyStateSolverMatchesAnalytic(t *testing.T) {
	leaky := newTestServer(t)
	got := leaky.SteadyStateDieTemp(0.7, 0.3)
	r := 1/leaky.Fans().Conductance() + 1/dieToCaseG
	if want := 22 + power(0.7, 0.3, got)*r; math.Abs(got-want) > 1e-6 {
		t.Errorf("leaky solver die = %v, but its heat puts the die at %v", got, want)
	}
	if leaky.DieTemp() != 22 {
		t.Error("SteadyStateDieTemp mutated server state")
	}
}

// TestMonotoneHeatingTransient: a cold server under constant heat warms
// monotonically.
func TestMonotoneHeatingTransient(t *testing.T) {
	s := linearServer(t, 100)
	prev := s.DieTemp()
	for i := 0; i < 600; i++ {
		if err := s.Advance(1); err != nil {
			t.Fatal(err)
		}
		if cur := s.DieTemp(); cur < prev-1e-9 {
			t.Fatalf("heating transient not monotone at step %d: %v -> %v", i, prev, cur)
		} else {
			prev = cur
		}
	}
}

// TestBoundaryTempShiftsEquilibrium: a warmer ambient lifts the settled
// die by the same amount.
func TestBoundaryTempShiftsEquilibrium(t *testing.T) {
	cool, warm := linearServer(t, 80), linearServer(t, 80)
	warm.SetAmbient(30)
	for i := 0; i < 5000; i++ {
		if err := cool.Advance(1); err != nil {
			t.Fatal(err)
		}
		if err := warm.Advance(1); err != nil {
			t.Fatal(err)
		}
	}
	if got := warm.DieTemp() - cool.DieTemp(); math.Abs(got-8) > 0.01 {
		t.Errorf("die steady with ambient +8 °C moved by %v, want 8", got)
	}
}

// TestSetConductanceAffectsSteadyState: the fan bank sets the case→ambient
// conductance the circuit integrates with, and a failed fan's loss shows
// in the transient.
func TestSetConductanceAffectsSteadyState(t *testing.T) {
	s := linearServer(t, 80)
	before := s.steady()
	if err := s.Fans().Fail(0); err != nil {
		t.Fatal(err)
	}
	want := s.steady()
	if want <= before {
		t.Fatalf("a failed fan lowered the steady state: %v -> %v", before, want)
	}
	for i := 0; i < 5000; i++ {
		if err := s.Advance(1); err != nil {
			t.Fatal(err)
		}
	}
	if math.Abs(s.DieTemp()-want) > 0.01 {
		t.Errorf("transient after a fan failure settled at %v, want %v", s.DieTemp(), want)
	}
}

// TestEnergyConservationAtSteadyState: once settled, the heat crossing
// die→case and case→ambient each equal the heat injected.
func TestEnergyConservationAtSteadyState(t *testing.T) {
	s := linearServer(t, 123)
	for i := 0; i < 5000; i++ {
		if err := s.Advance(1); err != nil {
			t.Fatal(err)
		}
	}
	if out := s.Fans().Conductance() * (s.CaseTemp() - s.ambientC); math.Abs(out-123) > 0.01 {
		t.Errorf("boundary outflow = %v W, want 123 W", out)
	}
	if dc := dieToCaseG * (s.DieTemp() - s.CaseTemp()); math.Abs(dc-123) > 0.01 {
		t.Errorf("die→case flow = %v W, want 123 W", dc)
	}
}

// TestLargeStepMatchesSmallSteps: sub-stepping makes one 300 s Advance
// track three hundred 1 s ones.
func TestLargeStepMatchesSmallSteps(t *testing.T) {
	big, small := linearServer(t, 90), linearServer(t, 90)
	if err := big.Advance(300); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		if err := small.Advance(1); err != nil {
			t.Fatal(err)
		}
	}
	if diff := math.Abs(big.DieTemp() - small.DieTemp()); diff > 0.25 {
		t.Errorf("big-step vs small-step divergence %v °C", diff)
	}
}
