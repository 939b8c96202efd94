package thermal

import (
	"fmt"
	"math"
)

// FanState describes a single fan's operating condition.
type FanState int

// Fan states. A degraded fan spins at reduced speed; a failed fan provides
// no airflow at all. Failure injection drives the fault-tolerance tests and
// the what-if example.
const (
	FanOK FanState = iota + 1
	FanDegraded
	FanFailed
)

// String implements fmt.Stringer.
func (s FanState) String() string {
	switch s {
	case FanOK:
		return "ok"
	case FanDegraded:
		return "degraded"
	case FanFailed:
		return "failed"
	default:
		return fmt.Sprintf("FanState(%d)", int(s))
	}
}

// Fan is a single cooling fan.
type Fan struct {
	state FanState
	// speed is the commanded speed fraction (0..1).
	speed float64
}

// FanBank is the server's set of case fans. Its aggregate airflow modulates
// the case→ambient conductance of the server's thermal circuit; the paper's
// θ_fan feature is derived from it.
type FanBank struct {
	fans []Fan
	// baseG is the case→ambient conductance with zero airflow (natural
	// convection), W/K.
	baseG float64
	// perFanG is the added conductance of one healthy fan at full speed.
	perFanG float64
	// g caches Conductance() while gOK: every server asks for it every tick
	// and its airflow changes only through SetSpeed and the state setters,
	// which clear gOK.
	g   float64
	gOK bool
}

// NewFanBank creates count fans, all healthy at full speed.
func NewFanBank(count int, baseG, perFanG float64) (*FanBank, error) {
	if count < 0 {
		return nil, fmt.Errorf("thermal: negative fan count %d", count)
	}
	if baseG <= 0 || perFanG < 0 {
		return nil, fmt.Errorf("thermal: invalid conductances base %v perFan %v", baseG, perFanG)
	}
	fans := make([]Fan, count)
	for i := range fans {
		fans[i] = Fan{state: FanOK, speed: 1}
	}
	return &FanBank{fans: fans, baseG: baseG, perFanG: perFanG}, nil
}

// Count returns the number of installed fans.
func (b *FanBank) Count() int { return len(b.fans) }

// State returns fan i's state.
func (b *FanBank) State(i int) (FanState, error) {
	if i < 0 || i >= len(b.fans) {
		return 0, fmt.Errorf("thermal: no fan %d", i)
	}
	return b.fans[i].state, nil
}

// SetSpeed commands fan i to a speed fraction in [0, 1].
func (b *FanBank) SetSpeed(i int, speed float64) error {
	if i < 0 || i >= len(b.fans) {
		return fmt.Errorf("thermal: no fan %d", i)
	}
	if speed < 0 || speed > 1 {
		return fmt.Errorf("thermal: speed %v outside [0,1]", speed)
	}
	b.fans[i].speed = speed
	b.gOK = false
	return nil
}

// Fail marks fan i failed (zero airflow).
func (b *FanBank) Fail(i int) error { return b.setState(i, FanFailed) }

// Degrade marks fan i degraded (half airflow).
func (b *FanBank) Degrade(i int) error { return b.setState(i, FanDegraded) }

// Repair restores fan i to healthy.
func (b *FanBank) Repair(i int) error { return b.setState(i, FanOK) }

func (b *FanBank) setState(i int, s FanState) error {
	if i < 0 || i >= len(b.fans) {
		return fmt.Errorf("thermal: no fan %d", i)
	}
	b.fans[i].state = s
	b.gOK = false
	return nil
}

// Airflow returns the aggregate effective airflow in "fan units": a healthy
// full-speed fan contributes 1.0, a degraded fan half its commanded speed, a
// failed fan nothing. This is the paper's θ_fan feature.
func (b *FanBank) Airflow() float64 {
	var a float64
	for _, f := range b.fans {
		switch f.state {
		case FanOK:
			a += f.speed
		case FanDegraded:
			a += 0.5 * f.speed
		case FanFailed:
			// no contribution
		}
	}
	return a
}

// Conductance returns the case→ambient thermal conductance (W/K) produced
// by the current airflow. Airflow has diminishing returns (~square root),
// matching fan-law heat transfer behaviour.
func (b *FanBank) Conductance() float64 {
	if !b.gOK {
		b.g, b.gOK = b.baseG+b.perFanG*math.Sqrt(b.Airflow()), true
	}
	return b.g
}

// Healthy returns the number of fans in the OK state.
func (b *FanBank) Healthy() int {
	n := 0
	for _, f := range b.fans {
		if f.state == FanOK {
			n++
		}
	}
	return n
}
