package thermal

import (
	"fmt"
	"math"
)

// FanBank is the server's set of case fans, each healthy or failed. Its
// aggregate airflow modulates the case→ambient conductance of the server's
// thermal circuit; the paper's θ_fan feature is derived from it. Failure
// injection drives the fault-tolerance tests and the what-if example.
type FanBank struct {
	failed []bool
	// g caches the conductance: every server asks for it every tick and
	// the airflow changes only through Fail, which recomputes it.
	g float64
}

// newFanBank creates count healthy fans.
func newFanBank(count int) (*FanBank, error) {
	if count < 0 {
		return nil, fmt.Errorf("thermal: negative fan count %d", count)
	}
	b := &FanBank{failed: make([]bool, count)}
	b.g = b.conductance()
	return b, nil
}

// Count returns the number of installed fans.
func (b *FanBank) Count() int { return len(b.failed) }

// Fail marks fan i failed (zero airflow).
func (b *FanBank) Fail(i int) error {
	if i < 0 || i >= len(b.failed) {
		return fmt.Errorf("thermal: no fan %d", i)
	}
	b.failed[i] = true
	b.g = b.conductance()
	return nil
}

// Airflow returns the aggregate effective airflow in "fan units": a healthy
// fan contributes 1.0, a failed fan nothing. This is the paper's θ_fan
// feature.
func (b *FanBank) Airflow() float64 {
	var a float64
	for _, failed := range b.failed {
		if !failed {
			a += 1.0
		}
	}
	return a
}

// Conductance returns the case→ambient thermal conductance (W/K) produced
// by the current airflow: baseCaseG of natural convection plus perFanG per
// fan unit, with diminishing returns (~square root), matching fan-law heat
// transfer behaviour.
func (b *FanBank) Conductance() float64 { return b.g }

func (b *FanBank) conductance() float64 {
	return baseCaseG + perFanG*math.Sqrt(b.Airflow())
}
