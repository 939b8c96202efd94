// Package thermal simulates server thermals with a lumped resistor–capacitor
// (RC) circuit. It stands in for the physical testbed of Wu et al. (ICDCS
// 2016): a CPU die heated by a utilization-driven power model, cooled through
// a heatsink/case node by a bank of fans into rack ambient air, observed by a
// noisy quantized temperature sensor.
//
// Each Server is one two-node circuit, die ↔ case ↔ ambient: the die and
// the case hold heat (capacitances C_die, C_case), the ambient is a fixed
// boundary temperature, and two conductances join them — die→case fixed,
// case→ambient set by the fan bank's airflow. AdvanceCurve integrates it with
// explicit Euler. The sub-step is a quarter of the faster node's time
// constant, min(C_die/G_dc, C_case/(G_dc+G_ca))/4 but at least 1 ms, and
// a dt is cut into ceil(dt/sub) equal sub-steps, so the scheme is stable
// for any dt. The sub-step changes only when the fan conductance does.
//
// The RC abstraction is the same one the thermal-management literature uses
// as ground truth (the paper's references [4] and [5] are both built on it),
// so the phenomena the predictors must learn — first-order saturation
// transients, steady states shaped by load, fan count and ambient — are
// faithfully present. Predictors only ever see sensor readings, never the
// circuit state, so the learning problem matches the paper's.
package thermal

import (
	"fmt"
	"math"
)

// The reference server's thermal assembly: a 2U machine whose CPU settles
// within ≈600 s, matching the paper's empirical break-in time.
const (
	// dieCapacitance is the CPU die + spreader heat capacity, J/K.
	dieCapacitance float64 = 140
	// caseCapacitance is the heatsink/chassis heat capacity, J/K. It sets
	// the slow time constant that makes temperature take ~10 minutes to
	// stabilize (the paper's t_break = 600 s).
	caseCapacitance float64 = 400
	// dieToCaseG is the die→heatsink conductance, W/K.
	dieToCaseG float64 = 5.5
	// baseCaseG is case→ambient conductance with no airflow, W/K.
	baseCaseG float64 = 0.9
	// perFanG is the conductance added per healthy full-speed fan, W/K.
	perFanG float64 = 1.8
	// throttleTempC engages thermal throttling: above this die temperature,
	// utilization is progressively capped to protect silicon.
	throttleTempC float64 = 96
)

// ServerParams places one reference server: its fan bank and the air it
// breathes.
type ServerParams struct {
	// FanCount is the number of case fans.
	FanCount int
	// AmbientC is the initial ambient (rack inlet) temperature, °C.
	AmbientC float64
}

// Validate checks parameter sanity. NaN fails every comparison, so the
// ambient is first checked to be finite.
func (p ServerParams) Validate() error {
	if err := finite("ServerParams", []field{{"AmbientC", p.AmbientC}}); err != nil {
		return err
	}
	if p.FanCount < 0 {
		return fmt.Errorf("thermal: negative fan count %d", p.FanCount)
	}
	return nil
}

// field is one named float parameter for finite.
type field struct {
	name string
	v    float64
}

// finite returns an error naming the first of kind's fields that is NaN or
// ±Inf.
func finite(kind string, fields []field) error {
	for _, f := range fields {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("thermal: %s.%s must be finite, got %v", kind, f.name, f.v)
		}
	}
	return nil
}

// Server is the thermal state of one physical machine. Drive it by setting
// Load and calling AdvanceCurve with the curve point of its EffectiveUtil
// (UtilCurves computes a rack's at once); read the die temperature with
// DieTemp or through a Sensor.
type Server struct {
	fans *FanBank

	// The circuit: node temperatures (°C), the case→ambient conductance the
	// fan bank set last (W/K), and sub, the stable Euler sub-step for it (s).
	dieC, caseC, ambientC float64
	caseAmbG              float64
	sub                   float64

	util    float64 // commanded CPU utilization 0..1
	memFrac float64 // memory activity 0..1
}

// NewServer builds a reference server from params. All nodes start at
// ambient temperature (a cold machine).
func NewServer(params ServerParams) (*Server, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	fans, err := newFanBank(params.FanCount)
	if err != nil {
		return nil, err
	}
	s := &Server{
		fans:     fans,
		dieC:     params.AmbientC,
		caseC:    params.AmbientC,
		ambientC: params.AmbientC,
	}
	s.setCaseG(fans.Conductance())
	return s, nil
}

// setCaseG sets the case→ambient conductance and the stable sub-step for
// it: a quarter of the smaller node time constant C/ΣG, at least 1 ms.
func (s *Server) setCaseG(g float64) {
	tauDie := dieCapacitance / dieToCaseG
	tauCase := caseCapacitance / (dieToCaseG + g)
	s.caseAmbG, s.sub = g, math.Max(min(tauDie, tauCase)/4, 1e-3)
}

// SetLoad sets the commanded CPU utilization and memory activity fractions.
// Values are clamped to [0, 1].
func (s *Server) SetLoad(util, memFrac float64) {
	s.util = clamp01(util)
	s.memFrac = clamp01(memFrac)
}

// SetAmbient changes the rack inlet air temperature (°C).
func (s *Server) SetAmbient(tempC float64) { s.ambientC = tempC }

// Fans exposes the fan bank for failure injection.
func (s *Server) Fans() *FanBank { return s.fans }

// EffectiveUtil returns the utilization after any thermal throttling.
func (s *Server) EffectiveUtil() float64 {
	u := s.util
	if over := s.dieC - throttleTempC; over > 0 {
		// Each degree over the limit sheds 10% of the commanded load.
		limit := clamp01(1 - 0.1*over)
		if limit < u {
			u = limit
		}
	}
	return u
}

// AdvanceCurve integrates the thermal state forward by dt seconds under the
// current load, fan and ambient conditions. curve is the power-curve point
// of the server's EffectiveUtil (UtilCurves). dt must be finite and > 0,
// and cut into no more sub-steps than an int counts.
func (s *Server) AdvanceCurve(dt, curve float64) error {
	return s.step(dt, s.fans.Conductance(), powerFromCurve(curve, s.memFrac, s.dieC))
}

// step integrates the circuit by dt seconds with case→ambient conductance
// g and heat watts entering at the die, held for the whole dt. Every
// product that feeds a sum is rounded by an explicit conversion, so a
// compiler that fuses multiply-adds gives the same bits.
func (s *Server) step(dt, g, heat float64) error {
	if !(dt > 0) || math.IsInf(dt, 1) {
		return fmt.Errorf("thermal: dt must be finite and > 0, got %v", dt)
	}
	if g != s.caseAmbG {
		s.setCaseG(g)
	}
	n := math.Ceil(dt / s.sub)
	if n >= math.MaxInt {
		return fmt.Errorf("thermal: dt %v needs %v sub-steps of %v s, more than an int counts", dt, n, s.sub)
	}
	steps := max(int(n), 1)
	h := dt / float64(steps)
	die, cs, amb := s.dieC, s.caseC, s.ambientC
	gdc, cDie, cCase := dieToCaseG, dieCapacitance, caseCapacitance
	for k := 0; k < steps; k++ {
		q0 := float64(gdc * (die - cs)) // W die → case
		q1 := float64(g * (cs - amb))   // W case → ambient
		fDie := 0 - q0 + heat
		fCase := 0 + q0 - q1
		die += float64(h*fDie) / cDie
		cs += float64(h*fCase) / cCase
	}
	s.dieC, s.caseC = die, cs
	return nil
}

// DieTemp returns the true (noise-free) CPU die temperature, °C.
func (s *Server) DieTemp() float64 { return s.dieC }

// CaseTemp returns the true heatsink/case temperature, °C.
func (s *Server) CaseTemp() float64 { return s.caseC }

// SteadyStateDieTemp solves the asymptotic die temperature for a constant
// utilization/memory load under current fan and ambient conditions: the
// whole heat crosses both conductances in series, and leakage feedback is
// resolved by fixed-point iteration from the current die temperature.
func (s *Server) SteadyStateDieTemp(util, memFrac float64) float64 {
	r := 1/s.fans.Conductance() + 1/dieToCaseG // K/W, die to ambient
	die := s.dieC
	for i := 0; i < 200; i++ {
		next := s.ambientC + power(util, memFrac, die)*r
		if diff := next - die; diff < 1e-9 && diff > -1e-9 {
			return next
		}
		die = next
	}
	return die
}
