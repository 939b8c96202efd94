// Package scenario is the thermal-emergency engine: it scripts
// deterministic fault timelines against a live closed loop and grades how
// the control plane rides them out.
//
// A Spec is a named timeline of Events — CRAC capacity loss and setpoint
// excursions, recirculation (containment-breach) spikes, correlated
// rack-wide load surges, per-host sensor faults, fleet-wide telemetry
// blackouts — each pinned to a control round. A Runner binds a Spec to a
// simulated *fleet.Controller, refuses events naming a host or rack the
// fleet does not have, applies each round's due events to the simulated
// substrate the controller lends it (Controller.WithSubstrate), runs the
// round, and accumulates the
// grading signals the paper's prediction exists to create: did the
// predicted hotspot flag precede the measured threshold crossing, how many
// rounds from fault onset until the last hotspot cleared, how many
// migrations the containment spent against its per-round budget, how many
// hosts were flagged that never actually crossed, how many readings the
// ingest plausibility filter rejected.
//
// Everything is deterministic: the same spec against the same fleet
// config and seed replays the same faults at the same rounds and produces
// the same Report. With no scenario bound, nothing in this package runs —
// the fleet's physics and control are byte-identical to an unscripted run.
package scenario

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"

	"vmtherm/internal/substrate"
)

// FaultKind names one injectable fault class.
type FaultKind string

const (
	// FaultCRACCapacity sets the CRAC's remaining cooling capacity
	// (Value, clamped to [0, 1]; 0 is a full CRAC failure, 1 a repair).
	FaultCRACCapacity FaultKind = "crac-capacity"
	// FaultCRACSetpoint shifts the CRAC supply setpoint by Value °C
	// (0 restores the configured setpoint).
	FaultCRACSetpoint FaultKind = "crac-setpoint"
	// FaultCRACRecirc scales the recirculation coefficient by Value —
	// a hot-aisle containment breach (1 restores nominal).
	FaultCRACRecirc FaultKind = "crac-recirc"
	// FaultLoadSurge places Count heavy VMs of Value vCPUs each on every
	// host of rack Rack — a correlated tenant burst.
	FaultLoadSurge FaultKind = "load-surge"
	// FaultLoadSurgeEnd removes the VMs a prior load-surge placed on Rack.
	FaultLoadSurgeEnd FaultKind = "load-surge-end"
	// FaultSensor injects a sensor fault on host Host: Mode is one of
	// "stuck", "dropped", "nan", "bias" (empty clears the fault); Value is
	// the frozen reading for "stuck" and the offset for "bias".
	FaultSensor FaultKind = "sensor"
	// FaultBlackout starts (Value != 0) or ends (Value == 0) a fleet-wide
	// telemetry blackout.
	FaultBlackout FaultKind = "blackout"
)

// Event is one timed fault action. Round is 1-based and the event fires
// immediately before that round runs, so an event at round 1 is active
// from the very first control decision.
type Event struct {
	Round int       `json:"round"`
	Fault FaultKind `json:"fault"`
	// Value is the fault magnitude; meaning depends on Fault (see the
	// FaultKind docs).
	Value float64 `json:"value,omitempty"`
	// Host scopes sensor faults.
	Host string `json:"host,omitempty"`
	// Rack scopes load surges.
	Rack int `json:"rack,omitempty"`
	// Mode selects the sensor fault mode.
	Mode string `json:"mode,omitempty"`
	// Count is the surge size in VMs per host (default 1).
	Count int `json:"count,omitempty"`
}

// Grade states what a scenario run must achieve to pass.
type Grade struct {
	// ContainWithinRounds, when positive, requires the hotspot set to
	// return to empty (and stay empty through the final round) within this
	// many rounds of fault onset.
	ContainWithinRounds int `json:"contain_within_rounds,omitempty"`
	// RequireLead requires the predicted hotspot flag to strictly precede
	// the measured threshold crossing — the paper's proactive window.
	RequireLead bool `json:"require_lead,omitempty"`
	// RequireReconverge requires every stale host to be re-fed by the
	// final round (StaleHosts back to zero).
	RequireReconverge bool `json:"require_reconverge,omitempty"`
	// RequireRejected requires the ingest plausibility filter to have
	// rejected at least one reading during the run (sensor-fault drills).
	RequireRejected bool `json:"require_rejected,omitempty"`
}

// Baseline seeds the fleet with background load before round 1, so faults
// land on a working datacenter instead of an idle one.
type Baseline struct {
	// VMsPerHost heavy VMs of VCPUs vCPUs and MemGB GB are placed on every
	// host (ids "base-<host>-<k>").
	VMsPerHost int     `json:"vms_per_host,omitempty"`
	VCPUs      int     `json:"vcpus,omitempty"`
	MemGB      float64 `json:"mem_gb,omitempty"`
}

// Spec is one complete scripted thermal emergency.
type Spec struct {
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`
	// Rounds is the total run length.
	Rounds int `json:"rounds"`
	// OnsetRound anchors the grading clock (containment and lead are
	// measured from here). Zero defaults to the earliest event round.
	OnsetRound int      `json:"onset_round,omitempty"`
	Baseline   Baseline `json:"baseline,omitempty"`
	Events     []Event  `json:"events"`
	Grade      Grade    `json:"grade,omitempty"`
}

// Onset is the grading reference round: OnsetRound when set, otherwise
// the earliest event round (0 with no events).
func (s *Spec) Onset() int {
	if s.OnsetRound > 0 {
		return s.OnsetRound
	}
	onset := 0
	for _, e := range s.Events {
		if onset == 0 || e.Round < onset {
			onset = e.Round
		}
	}
	return onset
}

// Validate checks the spec's internal consistency.
func (s *Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("scenario: spec needs a name")
	}
	if s.Rounds < 1 {
		return fmt.Errorf("scenario %s: rounds must be >= 1, got %d", s.Name, s.Rounds)
	}
	if s.Baseline.VMsPerHost < 0 || s.Baseline.VCPUs < 0 || s.Baseline.MemGB < 0 {
		return fmt.Errorf("scenario %s: negative baseline", s.Name)
	}
	for i, e := range s.Events {
		if e.Round < 1 || e.Round > s.Rounds {
			return fmt.Errorf("scenario %s: event %d round %d outside [1, %d]", s.Name, i, e.Round, s.Rounds)
		}
		switch e.Fault {
		case FaultCRACCapacity, FaultCRACSetpoint, FaultCRACRecirc, FaultBlackout:
		case FaultLoadSurge, FaultLoadSurgeEnd:
			if e.Rack < 0 {
				return fmt.Errorf("scenario %s: event %d negative rack", s.Name, i)
			}
		case FaultSensor:
			if e.Host == "" {
				return fmt.Errorf("scenario %s: event %d sensor fault needs a host", s.Name, i)
			}
			if _, ok := sensorModes[e.Mode]; !ok && e.Mode != "" {
				return fmt.Errorf("scenario %s: event %d unknown sensor mode %q", s.Name, i, e.Mode)
			}
		default:
			return fmt.Errorf("scenario %s: event %d unknown fault %q", s.Name, i, e.Fault)
		}
	}
	return nil
}

// fits checks every event's host and rack against the fleet — what
// Validate cannot see — so a spec written for a larger fleet is refused
// before round 1 instead of aborting mid-emergency.
func (s *Spec) fits(sub *substrate.Fleet) error {
	for i, e := range s.Events {
		switch e.Fault {
		case FaultSensor:
			if _, ok := sub.Slot(e.Host); !ok {
				return fmt.Errorf("event %d: fleet has no host %q", i, e.Host)
			}
		case FaultLoadSurge, FaultLoadSurgeEnd:
			if _, _, err := sub.RackSlots(e.Rack); err != nil {
				return fmt.Errorf("event %d: %w", i, err)
			}
		}
	}
	return nil
}

// sortedEvents returns the events in firing order (round, then spec
// order), leaving the spec untouched.
func (s *Spec) sortedEvents() []Event {
	evs := make([]Event, len(s.Events))
	copy(evs, s.Events)
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].Round < evs[j].Round })
	return evs
}

// FromJSON decodes and validates a spec.
func FromJSON(data []byte) (Spec, error) {
	var s Spec
	if err := json.Unmarshal(data, &s); err != nil {
		return Spec{}, fmt.Errorf("scenario: %w", err)
	}
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// Load resolves nameOrPath as a built-in scenario name first, then as a
// JSON spec file on disk.
func Load(nameOrPath string) (Spec, error) {
	if s, ok := Builtin(nameOrPath); ok {
		return s, nil
	}
	data, err := os.ReadFile(nameOrPath)
	if err != nil {
		return Spec{}, fmt.Errorf("scenario: %q is neither a built-in (%v) nor a readable file: %w",
			nameOrPath, BuiltinNames(), err)
	}
	return FromJSON(data)
}
