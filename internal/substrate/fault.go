package substrate

import (
	"fmt"
	"math"
)

// This file is the fleet's fault-injection surface: the hooks a
// thermal-emergency scenario (internal/scenario) scripts. Every hook
// mutates only simulator state, so the control plane under test never sees
// anything but its normal inputs: telemetry that lies, cooling that fails,
// load that surges.

// SensorFaultMode enumerates the ways a simulated temperature sensor can
// lie: frozen at one value, silent, emitting NaN, or wildly biased. The
// zero value is a healthy sensor.
type SensorFaultMode uint8

const (
	// SensorHealthy is the zero value: readings pass through untouched.
	SensorHealthy SensorFaultMode = iota
	// SensorStuck freezes the sensor at the fault's ValueC.
	SensorStuck
	// SensorDropped silences the sensor (the host keeps heating).
	SensorDropped
	// SensorNaN makes the sensor emit NaN temperatures.
	SensorNaN
	// SensorBiased adds the fault's ValueC to every reading.
	SensorBiased
)

// SensorFault describes one host's injected sensor misbehavior.
type SensorFault struct {
	Mode SensorFaultMode
	// ValueC is the frozen reading (SensorStuck) or the additive bias
	// (SensorBiased); ignored for the other modes.
	ValueC float64
}

// cracDynamics is the inter-rack CRAC supply/return coupling loop, active
// only once a scenario touches the cooling plant (the nil state is the
// bit-identical constant-supply physics every non-scenario run keeps).
// Each step the room's return-air temperature is the current supply plus
// the exhaust rise at the fleet's mean utilization; the unit cools that
// return stream by at most CapacityFrac·maxCoolDeltaC, never below its
// (possibly excursed) setpoint; and the supply relaxes toward that target
// with a first-order lag. At full capacity the cooling delta exceeds any
// reachable exhaust rise, so the steady state is exactly the setpoint; at
// zero capacity the supply chases the return air and the room runs away.
type cracDynamics struct {
	// CRACStatus is the loop's state as reported (Active is always true
	// here): SupplyC is the state variable, SetpointDeltaC, CapacityFrac
	// and RecircMult are what a scenario scripts.
	CRACStatus
	baseRecirc float64 // configured RecircPerUtil
}

// cracTauS is the supply-air lag: a failed CRAC heats the room over
// minutes, not ticks, so the controller has a (bounded) window to act.
const cracTauS = 60

// cracExhaustRiseC and cracMaxCoolDeltaC shape the return loop: the
// exhaust rise at full fleet utilization stays below the full-capacity
// cooling delta, so a healthy CRAC always pins its setpoint.
const (
	cracExhaustRiseC  = 14
	cracMaxCoolDeltaC = 25
)

// coupleCRAC advances the CRAC supply/return loop one step; see
// cracDynamics for the model. No-op until a scenario activates the plant.
func (f *Fleet) coupleCRAC(dt float64) {
	cd := f.crac
	if cd == nil {
		return
	}
	var sum float64
	for _, sh := range f.hosts { // the tick just summed every host's load
		u, _ := sh.loads()
		sum += u
	}
	mean := sum / float64(len(f.hosts))
	returnC := cd.SupplyC + cracExhaustRiseC*mean
	target := returnC - cd.CapacityFrac*cracMaxCoolDeltaC
	if sp := cd.SetpointC + cd.SetpointDeltaC; target < sp {
		target = sp
	}
	cd.SupplyC += (dt / cracTauS) * (target - cd.SupplyC)
	f.cool = CRAC{SupplyC: cd.SupplyC, RecircPerUtil: cd.baseRecirc * cd.RecircMult}
}

// cracState lazily activates the coupling loop, seeded from the configured
// (so far constant) CRAC: the first scenario touch is the moment the plant
// becomes dynamic.
func (f *Fleet) cracState() *cracDynamics {
	if f.crac == nil {
		c := f.cool
		f.crac = &cracDynamics{
			CRACStatus: CRACStatus{Active: true, SupplyC: c.SupplyC, SetpointC: c.SupplyC, CapacityFrac: 1, RecircMult: 1},
			baseRecirc: c.RecircPerUtil,
		}
	}
	return f.crac
}

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

// CRACStatus reports the cooling plant's current state.
func (f *Fleet) CRACStatus() CRACStatus {
	if f.crac != nil {
		return f.crac.CRACStatus
	}
	cc := f.cool
	return CRACStatus{SupplyC: cc.SupplyC, SetpointC: cc.SupplyC, CapacityFrac: 1, RecircMult: 1}
}

// SetCRACSetpointDelta shifts the CRAC supply setpoint by deltaC — a
// setpoint excursion. The first CRAC touch activates the supply/return
// coupling loop; the supply then relaxes toward the excursed setpoint
// with the plant's lag.
func (f *Fleet) SetCRACSetpointDelta(deltaC float64) error {
	if math.IsNaN(deltaC) || math.IsInf(deltaC, 0) {
		return fmt.Errorf("fleet: setpoint delta %v invalid", deltaC)
	}
	f.cracState().SetpointDeltaC = deltaC
	return nil
}

// SetCRACCoolingCapacity sets the CRAC's remaining cooling capacity as a
// fraction of nominal: 1 is a healthy unit, 0 a failed one whose supply
// air chases the ever-hotter return stream. Values are clamped to [0, 1].
func (f *Fleet) SetCRACCoolingCapacity(frac float64) error {
	if math.IsNaN(frac) {
		return fmt.Errorf("fleet: cooling capacity %v invalid", frac)
	}
	f.cracState().CapacityFrac = min(max(frac, 0), 1)
	return nil
}

// SetCRACRecircMultiplier scales the recirculation coefficient — a
// containment breach (failed blanking panels, an open hot-aisle door)
// that couples exhaust back into the inlets more strongly.
func (f *Fleet) SetCRACRecircMultiplier(mult float64) error {
	if math.IsNaN(mult) || math.IsInf(mult, 0) || mult < 0 {
		return fmt.Errorf("fleet: recirculation multiplier %v invalid", mult)
	}
	f.cracState().RecircMult = mult
	return nil
}

// SetTelemetryDark starts or ends a fleet-wide telemetry blackout: every
// host keeps running but the sensor sweep emits nothing, so the control
// plane must ride out the gap on staleness degradation alone.
func (f *Fleet) SetTelemetryDark(dark bool) { f.dark = dark }

// SetSensorFault injects (or, with the zero fault, clears) a sensor fault
// on one host: the host keeps running and heating, its physics untouched,
// but its emitted readings are frozen, silenced, NaN, or biased.
func (f *Fleet) SetSensorFault(hostID string, fault SensorFault) error {
	i, ok := f.slotOf[hostID]
	if !ok {
		return fmt.Errorf("fleet: unknown host %q", hostID)
	}
	f.hosts[i].fault = fault
	return nil
}

// FailFans fails n of slot i's fans, lowest index first: a cooling fault
// inside one server, which no repair undoes.
func (f *Fleet) FailFans(i, n int) error {
	fans := f.hosts[i].server.Fans()
	if n < 1 || n > fans.Count() {
		return fmt.Errorf("fleet: cannot fail %d of %d fans", n, fans.Count())
	}
	for k := 0; k < n; k++ {
		if err := fans.Fail(k); err != nil {
			return err
		}
	}
	return nil
}

// ActiveFaults counts the fault conditions injected now: a degraded CRAC,
// an excursed setpoint, a recirculation breach, a blackout, and each
// faulted sensor.
func (f *Fleet) ActiveFaults() int {
	n := 0
	if cd := f.crac; cd != nil {
		for _, on := range [...]bool{cd.CapacityFrac < 1, cd.SetpointDeltaC != 0, cd.RecircMult != 1} {
			if on {
				n++
			}
		}
	}
	if f.dark {
		n++
	}
	for _, sh := range f.hosts {
		if sh.fault.Mode != SensorHealthy {
			n++
		}
	}
	return n
}

// RackSlots returns one rack's slot range [lo, hi) — the blast radius of
// a rack-scoped fault such as a correlated load surge.
func (f *Fleet) RackSlots(rack int) (lo, hi int, err error) {
	if rack < 0 || rack >= len(f.rackSpan) {
		return 0, 0, fmt.Errorf("fleet: no rack %d", rack)
	}
	return f.rackSpan[rack][0], f.rackSpan[rack][1], nil
}
