package thermal

import (
	"fmt"
	"math"
)

// ServerParams configures a server's thermal assembly: a two-node RC network
// (CPU die + case/heatsink) cooled by a fan bank into ambient air.
type ServerParams struct {
	// Power is the heat generation model.
	Power PowerModel
	// DieCapacitance is the CPU die + spreader heat capacity, J/K.
	DieCapacitance float64
	// CaseCapacitance is the heatsink/chassis heat capacity, J/K. It sets
	// the slow time constant that makes temperature take ~10 minutes to
	// stabilize (the paper's t_break = 600 s).
	CaseCapacitance float64
	// DieToCaseG is the die→heatsink conductance, W/K.
	DieToCaseG float64
	// Fans configures the fan bank.
	FanCount int
	// BaseCaseG is case→ambient conductance with no airflow, W/K.
	BaseCaseG float64
	// PerFanG is the conductance added per healthy full-speed fan, W/K.
	PerFanG float64
	// AmbientC is the initial ambient (rack inlet) temperature, °C.
	AmbientC float64
	// ThrottleTempC, if > 0, engages thermal throttling: above this die
	// temperature, utilization is progressively capped to protect silicon.
	ThrottleTempC float64
}

// DefaultServerParams returns the reference server used across experiments:
// a 4-fan 2U machine whose CPU settles within ≈600 s, matching the paper's
// empirical break-in time.
func DefaultServerParams() ServerParams {
	return ServerParams{
		Power:           DefaultPowerModel(),
		DieCapacitance:  140,
		CaseCapacitance: 400,
		DieToCaseG:      5.5,
		FanCount:        4,
		BaseCaseG:       0.9,
		PerFanG:         1.8,
		AmbientC:        22,
		ThrottleTempC:   96,
	}
}

// Validate checks parameter sanity.
func (p ServerParams) Validate() error {
	if err := p.Power.Validate(); err != nil {
		return err
	}
	if p.DieCapacitance <= 0 || p.CaseCapacitance <= 0 {
		return fmt.Errorf("thermal: capacitances must be > 0 (die %v, case %v)",
			p.DieCapacitance, p.CaseCapacitance)
	}
	if p.DieToCaseG <= 0 {
		return fmt.Errorf("thermal: die-to-case conductance must be > 0, got %v", p.DieToCaseG)
	}
	if p.FanCount < 0 {
		return fmt.Errorf("thermal: negative fan count %d", p.FanCount)
	}
	if p.BaseCaseG <= 0 || p.PerFanG < 0 {
		return fmt.Errorf("thermal: invalid case conductances base %v perFan %v",
			p.BaseCaseG, p.PerFanG)
	}
	return nil
}

// Server is the thermal state of one physical machine. Drive it by setting
// Load and calling Advance; read the die temperature with DieTemp or through
// a Sensor.
type Server struct {
	params   ServerParams
	net      *Network
	die      int
	caseN    int
	ambient  int
	caseEdge int // edge whose conductance tracks the fan bank
	fans     *FanBank

	util      float64 // commanded CPU utilization 0..1
	memFrac   float64 // memory activity 0..1
	throttled bool

	// curveBits and curve memoise utilCurve across ticks: the bits of the
	// last effective utilization Advance saw and its curve point. Equal
	// bits in give equal bits out, so a host whose utilization holds from
	// one tick to the next skips math.Pow without changing a result.
	curveBits uint64
	curve     float64
}

// NewServer builds a server thermal assembly from params. All nodes start
// at ambient temperature (a cold machine).
func NewServer(params ServerParams) (*Server, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	net := NewNetwork()
	die, err := net.AddNode("die", params.DieCapacitance, params.AmbientC)
	if err != nil {
		return nil, err
	}
	caseN, err := net.AddNode("case", params.CaseCapacitance, params.AmbientC)
	if err != nil {
		return nil, err
	}
	amb, err := net.AddBoundary("ambient", params.AmbientC)
	if err != nil {
		return nil, err
	}
	if _, err := net.Connect(die, caseN, params.DieToCaseG); err != nil {
		return nil, err
	}
	fans, err := NewFanBank(params.FanCount, params.BaseCaseG, params.PerFanG)
	if err != nil {
		return nil, err
	}
	caseEdge, err := net.Connect(caseN, amb, fans.Conductance())
	if err != nil {
		return nil, err
	}
	return &Server{
		params:   params,
		net:      net,
		die:      die,
		caseN:    caseN,
		ambient:  amb,
		caseEdge: caseEdge,
		fans:     fans,
		// The memo starts at util +0 (Float64bits(0) == 0).
		curve: params.Power.utilCurve(0),
	}, nil
}

// SetLoad sets the commanded CPU utilization and memory activity fractions.
// Values are clamped to [0, 1].
func (s *Server) SetLoad(util, memFrac float64) {
	s.util = clamp01(util)
	s.memFrac = clamp01(memFrac)
}

// Load returns the commanded utilization and memory activity.
func (s *Server) Load() (util, memFrac float64) { return s.util, s.memFrac }

// SetAmbient changes the rack inlet air temperature (°C).
func (s *Server) SetAmbient(tempC float64) {
	// ambient is always a valid boundary node by construction.
	_ = s.net.SetBoundaryTemp(s.ambient, tempC)
}

// Ambient returns the current inlet air temperature.
func (s *Server) Ambient() float64 { return s.net.Temp(s.ambient) }

// Fans exposes the fan bank for speed control and failure injection.
func (s *Server) Fans() *FanBank { return s.fans }

// Throttled reports whether thermal throttling engaged during the last
// Advance call.
func (s *Server) Throttled() bool { return s.throttled }

// EffectiveUtil returns the utilization after any thermal throttling.
func (s *Server) EffectiveUtil() float64 {
	u := s.util
	if s.params.ThrottleTempC > 0 {
		die := s.net.Temp(s.die)
		if over := die - s.params.ThrottleTempC; over > 0 {
			// Each degree over the limit sheds 10% of the commanded load.
			limit := clamp01(1 - 0.1*over)
			if limit < u {
				u = limit
			}
		}
	}
	return u
}

// Advance integrates the thermal state forward by dt seconds under the
// current load, fan and ambient conditions.
func (s *Server) Advance(dt float64) error {
	if err := s.net.SetConductance(s.caseEdge, s.fans.Conductance()); err != nil {
		return err
	}
	u := s.EffectiveUtil()
	s.throttled = u < s.util
	if b := math.Float64bits(u); b != s.curveBits {
		s.curveBits, s.curve = b, s.params.Power.utilCurve(u)
	}
	heat := s.params.Power.powerFromCurve(s.curve, s.memFrac, s.net.Temp(s.die))
	return s.net.StepOne(dt, s.die, heat)
}

// DieTemp returns the true (noise-free) CPU die temperature, °C.
func (s *Server) DieTemp() float64 { return s.net.Temp(s.die) }

// CaseTemp returns the true heatsink/case temperature, °C.
func (s *Server) CaseTemp() float64 { return s.net.Temp(s.caseN) }

// SteadyStateDieTemp solves the asymptotic die temperature for a constant
// utilization/memory load under current fan and ambient conditions. Leakage
// feedback is resolved by fixed-point iteration.
func (s *Server) SteadyStateDieTemp(util, memFrac float64) (float64, error) {
	if err := s.net.SetConductance(s.caseEdge, s.fans.Conductance()); err != nil {
		return 0, err
	}
	die := s.net.Temp(s.die)
	for i := 0; i < 200; i++ {
		heat := s.params.Power.Power(util, memFrac, die)
		temps, err := s.net.SteadyState(map[int]float64{s.die: heat})
		if err != nil {
			return 0, err
		}
		next := temps[s.die]
		if diff := next - die; diff < 1e-9 && diff > -1e-9 {
			return next, nil
		}
		die = next
	}
	return die, nil
}

// Params returns a copy of the construction parameters.
func (s *Server) Params() ServerParams { return s.params }
