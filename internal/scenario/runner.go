package scenario

import (
	"fmt"
	"sync"

	"vmtherm/internal/fleet"
	"vmtherm/internal/vmm"
)

// Runner binds a Spec to a simulated fleet controller and drives the
// scripted emergency: each Step applies the events due before the next
// round, runs the round, and folds the round's outcome into the grading
// accumulators. One goroutine drives Step/Run; Status and Report are safe
// to call concurrently from servers and stats loops.
type Runner struct {
	spec   Spec
	ctrl   *fleet.Controller
	events []Event // sorted by round
	next   int     // first unapplied event

	// scratch reused across rounds so grading stays off the round's
	// allocation budget.
	die     map[string]float64
	baseRej int64

	mu sync.Mutex
	// accumulators (guarded by mu; written by Step, read by Status/Report).
	round              int
	firstFlagRound     int
	measuredCrossRound int
	lastHotRound       int
	peakHotspots       int
	peakMeasuredC      float64
	curHotspots        int
	curStale           int
	migrationsApplied  int
	maxStaleHosts      int
	staleSeen          bool
	reconvergeRound    int
	rejected           int64
	flagged            map[string]bool
	crossed            map[string]bool
	// fault state mirrors (for FaultsActive).
	capacityFrac float64
	setpointD    float64
	recircMult   float64
	dark         bool
	sensorFaults map[string]bool
	surgeVMs     map[int][]string
	done         bool
}

// New validates the spec, seeds the baseline load, and returns a runner
// ready for Step. The controller must be a simulated fleet (the fault
// hooks script its substrate); source-driven fleets return
// fleet.ErrNoSubstrate on the first fault instead.
func New(spec Spec, ctrl *fleet.Controller) (*Runner, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	r := &Runner{
		spec:         spec,
		ctrl:         ctrl,
		events:       spec.sortedEvents(),
		capacityFrac: 1,
		recircMult:   1,
		flagged:      make(map[string]bool),
		crossed:      make(map[string]bool),
		sensorFaults: make(map[string]bool),
		surgeVMs:     make(map[int][]string),
	}
	_, r.baseRej = ctrl.IngestRejected()
	if b := spec.Baseline; b.VMsPerHost > 0 {
		vcpus, mem := b.VCPUs, b.MemGB
		if vcpus <= 0 {
			vcpus = 4
		}
		if mem <= 0 {
			mem = 4
		}
		for _, host := range ctrl.Hosts() {
			for k := 0; k < b.VMsPerHost; k++ {
				id := fmt.Sprintf("base-%s-%d", host, k)
				if err := placeHeavy(ctrl, host, id, vcpus, mem); err != nil {
					return nil, fmt.Errorf("scenario %s: baseline %s: %w", spec.Name, id, err)
				}
			}
		}
	}
	return r, nil
}

// Spec returns the bound spec.
func (r *Runner) Spec() Spec { return r.spec }

// Done reports whether the full timeline has run.
func (r *Runner) Done() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.done
}

// Step applies the next round's due events, runs one control round, and
// grades it. The returned report is the controller's own RoundReport.
func (r *Runner) Step() (fleet.RoundReport, error) {
	r.mu.Lock()
	round := r.round + 1
	r.mu.Unlock()
	if round > r.spec.Rounds {
		return fleet.RoundReport{}, fmt.Errorf("scenario %s: timeline exhausted after %d rounds", r.spec.Name, r.spec.Rounds)
	}
	for r.next < len(r.events) && r.events[r.next].Round <= round {
		if err := r.apply(r.events[r.next]); err != nil {
			return fleet.RoundReport{}, err
		}
		r.next++
	}
	rep, err := r.ctrl.RunRound()
	if err != nil {
		return rep, err
	}
	r.grade(round, &rep)
	return rep, nil
}

// Run drives the whole timeline and returns the final graded report.
func (r *Runner) Run() (Report, error) {
	for i := 0; i < r.spec.Rounds; i++ {
		if _, err := r.Step(); err != nil {
			return Report{}, err
		}
	}
	return r.Report(), nil
}

// apply fires one event through the controller's fault hooks and mirrors
// the resulting fault state for Status.
func (r *Runner) apply(e Event) error {
	var err error
	switch e.Fault {
	case FaultCRACCapacity:
		err = r.ctrl.SetCRACCoolingCapacity(e.Value)
	case FaultCRACSetpoint:
		err = r.ctrl.SetCRACSetpointDelta(e.Value)
	case FaultCRACRecirc:
		err = r.ctrl.SetCRACRecircMultiplier(e.Value)
	case FaultBlackout:
		err = r.ctrl.SetTelemetryDark(e.Value != 0)
	case FaultSensor:
		err = r.ctrl.SetSensorFault(e.Host, sensorFault(e))
	case FaultLoadSurge:
		err = r.surge(e)
	case FaultLoadSurgeEnd:
		err = r.surgeEnd(e.Rack)
	default:
		err = fmt.Errorf("unknown fault %q", e.Fault)
	}
	if err != nil {
		return fmt.Errorf("scenario %s: round %d %s: %w", r.spec.Name, e.Round, e.Fault, err)
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	switch e.Fault {
	case FaultCRACCapacity:
		r.capacityFrac = min(max(e.Value, 0), 1)
	case FaultCRACSetpoint:
		r.setpointD = e.Value
	case FaultCRACRecirc:
		r.recircMult = e.Value
	case FaultBlackout:
		r.dark = e.Value != 0
	case FaultSensor:
		if e.Mode == "" {
			delete(r.sensorFaults, e.Host)
		} else {
			r.sensorFaults[e.Host] = true
		}
	}
	return nil
}

// sensorFault maps an event's mode string to the simulator's fault.
func sensorFault(e Event) fleet.SensorFault {
	switch e.Mode {
	case "stuck":
		return fleet.SensorFault{Mode: fleet.SensorStuck, ValueC: e.Value}
	case "dropped":
		return fleet.SensorFault{Mode: fleet.SensorDropped}
	case "nan":
		return fleet.SensorFault{Mode: fleet.SensorNaN}
	case "bias":
		return fleet.SensorFault{Mode: fleet.SensorBiased, ValueC: e.Value}
	default:
		return fleet.SensorFault{}
	}
}

// surge places the correlated load burst on every host of the rack.
func (r *Runner) surge(e Event) error {
	hosts, err := r.ctrl.RackHostIDs(e.Rack)
	if err != nil {
		return err
	}
	count := e.Count
	if count <= 0 {
		count = 1
	}
	vcpus := int(e.Value)
	if vcpus <= 0 {
		vcpus = 4
	}
	var placed []string
	for _, h := range hosts {
		for k := 0; k < count; k++ {
			id := fmt.Sprintf("surge-r%d-%s-%d", e.Rack, h, k)
			if err := placeHeavy(r.ctrl, h, id, vcpus, 2); err != nil {
				return fmt.Errorf("placing %s: %w", id, err)
			}
			placed = append(placed, id)
		}
	}
	r.mu.Lock()
	r.surgeVMs[e.Rack] = append(r.surgeVMs[e.Rack], placed...)
	r.mu.Unlock()
	return nil
}

// placeHeavy force-places a fleet.HeavyVMSpec. That builds one task per
// vCPU, and a spec may ask for 2e9 of them: a shape no host could hold is
// refused before it is built, not by PlaceAt after.
func placeHeavy(ctrl *fleet.Controller, host, id string, vcpus int, memGB float64) error {
	if err := fleet.ShapeError(ctrl.Config().HostShape, vmm.VMConfig{VCPUs: vcpus, MemoryGB: memGB}); err != nil {
		return err
	}
	return ctrl.PlaceAt(host, fleet.HeavyVMSpec(id, vcpus, memGB))
}

// surgeEnd removes whatever a prior surge placed on the rack. VMs the
// controller already migrated off the rack are removed wherever they
// landed — RemoveVM tracks the VM, not the slot.
func (r *Runner) surgeEnd(rack int) error {
	r.mu.Lock()
	vms := r.surgeVMs[rack]
	delete(r.surgeVMs, rack)
	r.mu.Unlock()
	for _, id := range vms {
		if err := r.ctrl.RemoveVM(id); err != nil {
			return fmt.Errorf("removing %s: %w", id, err)
		}
	}
	return nil
}

// grade folds one completed round into the accumulators. The measured die
// temperatures come from the simulator's noise-free oracle — the grading
// ground truth the control plane itself never sees.
func (r *Runner) grade(round int, rep *fleet.RoundReport) {
	var err error
	r.die, err = r.ctrl.MeasuredDieTemps(r.die)
	if err != nil {
		r.die = nil // source-driven fleet: grade on control-plane signals only
	}

	onset := r.spec.Onset()
	var hotIDs []string
	threshold := 0.0
	r.ctrl.ViewSnapshot(func(s *fleet.Snapshot) {
		threshold = s.ThresholdC
		for _, h := range s.Hotspots {
			hotIDs = append(hotIDs, h.HostID)
		}
	})

	r.mu.Lock()
	defer r.mu.Unlock()
	r.round = round
	r.curHotspots = len(hotIDs)
	r.curStale = rep.StaleHosts
	r.migrationsApplied += rep.AppliedMoves
	for _, id := range hotIDs {
		r.flagged[id] = true
	}
	if len(hotIDs) > 0 {
		r.lastHotRound = round
		if r.firstFlagRound == 0 && (onset == 0 || round >= onset) {
			r.firstFlagRound = round
		}
		if len(hotIDs) > r.peakHotspots {
			r.peakHotspots = len(hotIDs)
		}
	}
	for id, t := range r.die {
		if t > r.peakMeasuredC {
			r.peakMeasuredC = t
		}
		if threshold > 0 && t > threshold {
			r.crossed[id] = true
			if r.measuredCrossRound == 0 && (onset == 0 || round >= onset) {
				r.measuredCrossRound = round
			}
		}
	}
	if rep.StaleHosts > r.maxStaleHosts {
		r.maxStaleHosts = rep.StaleHosts
	}
	if rep.StaleHosts > 0 {
		r.staleSeen = true
		r.reconvergeRound = 0
	} else if r.staleSeen && r.reconvergeRound == 0 {
		r.reconvergeRound = round
	}
	_, total := r.ctrl.IngestRejected()
	r.rejected = total - r.baseRej
	if round >= r.spec.Rounds {
		r.done = true
	}
}

// Status is the live view a server exposes while a scenario runs.
type Status struct {
	Name        string `json:"name"`
	Active      bool   `json:"active"`
	Done        bool   `json:"done"`
	Round       int    `json:"round"`
	TotalRounds int    `json:"total_rounds"`
	OnsetRound  int    `json:"onset_round"`
	// FaultsActive counts currently-injected fault conditions (a degraded
	// CRAC, an excursed setpoint, a recirculation breach, a blackout, each
	// faulted sensor, each surged rack).
	FaultsActive int `json:"faults_active"`
	Hotspots     int `json:"hotspots"`
	StaleHosts   int `json:"stale_hosts"`
	// Contained reports that a past emergency's hotspot set has returned
	// to empty (trivially false before any hotspot appears).
	Contained bool             `json:"contained"`
	Rejected  int64            `json:"readings_rejected"`
	CRAC      fleet.CRACStatus `json:"crac"`
}

// Status snapshots the run's live state. Safe for concurrent use with
// Step.
func (r *Runner) Status() Status {
	crac, _ := r.ctrl.CRACStatus()
	r.mu.Lock()
	defer r.mu.Unlock()
	faults := 0
	if r.capacityFrac < 1 {
		faults++
	}
	if r.setpointD != 0 {
		faults++
	}
	if r.recircMult != 1 {
		faults++
	}
	if r.dark {
		faults++
	}
	faults += len(r.sensorFaults) + len(r.surgeVMs)
	return Status{
		Name:         r.spec.Name,
		Active:       !r.done,
		Done:         r.done,
		Round:        r.round,
		TotalRounds:  r.spec.Rounds,
		OnsetRound:   r.spec.Onset(),
		FaultsActive: faults,
		Hotspots:     r.curHotspots,
		StaleHosts:   r.curStale,
		Contained:    r.lastHotRound > 0 && r.curHotspots == 0,
		Rejected:     r.rejected,
		CRAC:         crac,
	}
}
