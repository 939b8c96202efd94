package fleet

import (
	"fmt"
	"math"
)

// This file is the controller's fault-injection surface: the hooks a
// thermal-emergency scenario (internal/scenario) scripts against a
// simulated fleet. Every hook follows one contract — it takes the round
// lock, requires a simulated substrate (ErrNoSubstrate otherwise), and
// mutates only simulator state, so the control plane under test never
// sees anything but its normal inputs: telemetry that lies, cooling that
// fails, load that surges.

// CRACStatus reports the cooling plant's state. Until a scenario touches
// the plant the coupling loop is inactive (Active false) and the supply
// is the configured constant.
type CRACStatus struct {
	// Active reports whether the supply/return coupling loop is running.
	Active bool `json:"active"`
	// SupplyC is the current supply-air temperature.
	SupplyC float64 `json:"supply_c"`
	// SetpointC is the configured setpoint; SetpointDeltaC the scripted
	// excursion currently added to it.
	SetpointC      float64 `json:"setpoint_c"`
	SetpointDeltaC float64 `json:"setpoint_delta_c"`
	// CapacityFrac is the remaining cooling capacity (1 healthy, 0 failed).
	CapacityFrac float64 `json:"capacity_frac"`
	// RecircMult scales the configured recirculation coefficient.
	RecircMult float64 `json:"recirc_mult"`
}

// SetCRACSetpointDelta shifts the CRAC supply setpoint by deltaC — a
// setpoint excursion. The first CRAC touch activates the supply/return
// coupling loop; the supply then relaxes toward the excursed setpoint
// with the plant's lag. Simulated fleets only.
func (c *Controller) SetCRACSetpointDelta(deltaC float64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.sim == nil {
		return ErrNoSubstrate
	}
	if math.IsNaN(deltaC) || math.IsInf(deltaC, 0) {
		return fmt.Errorf("fleet: setpoint delta %v invalid", deltaC)
	}
	c.sim.cracState().setpointDeltaC = deltaC
	return nil
}

// SetCRACCoolingCapacity sets the CRAC's remaining cooling capacity as a
// fraction of nominal: 1 is a healthy unit, 0 a failed one whose supply
// air chases the ever-hotter return stream. Values are clamped to [0, 1].
// Simulated fleets only.
func (c *Controller) SetCRACCoolingCapacity(frac float64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.sim == nil {
		return ErrNoSubstrate
	}
	if math.IsNaN(frac) {
		return fmt.Errorf("fleet: cooling capacity %v invalid", frac)
	}
	c.sim.cracState().capacityFrac = min(max(frac, 0), 1)
	return nil
}

// SetCRACRecircMultiplier scales the recirculation coefficient — a
// containment breach (failed blanking panels, an open hot-aisle door)
// that couples exhaust back into the inlets more strongly. Simulated
// fleets only.
func (c *Controller) SetCRACRecircMultiplier(mult float64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.sim == nil {
		return ErrNoSubstrate
	}
	if math.IsNaN(mult) || math.IsInf(mult, 0) || mult < 0 {
		return fmt.Errorf("fleet: recirculation multiplier %v invalid", mult)
	}
	c.sim.cracState().recircMult = mult
	return nil
}

// CRACStatus reports the cooling plant's current state. Simulated fleets
// only.
func (c *Controller) CRACStatus() (CRACStatus, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.sim == nil {
		return CRACStatus{}, ErrNoSubstrate
	}
	cd := c.sim.crac
	if cd == nil {
		cc := c.sim.dc.CRAC()
		return CRACStatus{SupplyC: cc.SupplyC, SetpointC: cc.SupplyC, CapacityFrac: 1, RecircMult: 1}, nil
	}
	return CRACStatus{
		Active:         true,
		SupplyC:        cd.supplyC,
		SetpointC:      cd.setpointC,
		SetpointDeltaC: cd.setpointDeltaC,
		CapacityFrac:   cd.capacityFrac,
		RecircMult:     cd.recircMult,
	}, nil
}

// withSimHost runs fn on one simulated host under the round lock — the
// shared body of the per-host hooks. Simulated fleets only.
func (c *Controller) withSimHost(hostID string, fn func(*simHost)) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.sim == nil {
		return ErrNoSubstrate
	}
	sh, ok := c.sim.hosts[hostID]
	if !ok {
		return fmt.Errorf("fleet: unknown host %q", hostID)
	}
	fn(sh)
	return nil
}

// SetSensorFault injects (or, with the zero fault, clears) a sensor fault
// on one host: the host keeps running and heating, its physics untouched,
// but its emitted readings are frozen, silenced, NaN, or biased. Simulated
// fleets only.
func (c *Controller) SetSensorFault(hostID string, f SensorFault) error {
	return c.withSimHost(hostID, func(sh *simHost) { sh.fault = f })
}

// SetTelemetryDark starts or ends a fleet-wide telemetry blackout: every
// host keeps running but the sensor sweep emits nothing, so the control
// plane must ride out the gap on staleness degradation alone. Simulated
// fleets only.
func (c *Controller) SetTelemetryDark(dark bool) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.sim == nil {
		return ErrNoSubstrate
	}
	c.sim.dark = dark
	return nil
}

// RemoveVM evicts a VM from the simulated fleet — the inverse of PlaceAt,
// used by scenarios to end a scripted load surge. The host's session is
// deleted so the next round re-anchors it against the shrunken
// deployment. Simulated fleets only.
func (c *Controller) RemoveVM(vmID string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.sim == nil {
		return ErrNoSubstrate
	}
	hostID, ok := c.sim.vmHost[vmID]
	if !ok {
		return errNoSuchVM
	}
	if err := c.sim.remove(vmID); err != nil {
		return err
	}
	c.eng.Delete(hostID)
	return nil
}

// RackHostIDs lists one rack's host ids in slot order — the blast radius
// of rack-scoped faults (correlated surges, partition blackouts).
// Simulated fleets only.
func (c *Controller) RackHostIDs(rack int) ([]string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.sim == nil {
		return nil, ErrNoSubstrate
	}
	if rack < 0 || rack >= len(c.sim.rackSpan) {
		return nil, fmt.Errorf("fleet: no rack %d", rack)
	}
	span := c.sim.rackSpan[rack]
	out := make([]string, 0, span[1]-span[0])
	for i := span[0]; i < span[1]; i++ {
		out = append(out, c.sim.order[i])
	}
	return out, nil
}

// MeasuredDieTemps reads every host's true (noise-free) die temperature
// into dst (allocated when nil) — the grading oracle for scenario runs;
// the control loop itself only ever sees telemetry. Simulated fleets only.
func (c *Controller) MeasuredDieTemps(dst map[string]float64) (map[string]float64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.sim == nil {
		return nil, ErrNoSubstrate
	}
	if dst == nil {
		dst = make(map[string]float64, len(c.sim.byPos))
	}
	for i, sh := range c.sim.byPos {
		dst[c.sim.order[i]] = sh.server.DieTemp()
	}
	return dst, nil
}
