package scenario

import (
	"fmt"
	"sync"

	"vmtherm/internal/fleet"
	"vmtherm/internal/substrate"
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
	// baseRej is the ingest rejection total before round 1.
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
	// surgeVMs lists, per surged rack, the VMs its surge placed.
	surgeVMs map[int][]string
	done     bool
}

// New validates the spec, checks every event's host and rack against the
// fleet, seeds the baseline load, and returns a runner ready for Step. The
// controller must be a simulated fleet (the faults script its substrate);
// a source-driven one is refused with fleet.ErrNoSubstrate.
func New(spec Spec, ctrl *fleet.Controller) (*Runner, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	r := &Runner{
		spec:     spec,
		ctrl:     ctrl,
		events:   spec.sortedEvents(),
		flagged:  make(map[string]bool),
		crossed:  make(map[string]bool),
		surgeVMs: make(map[int][]string),
	}
	_, r.baseRej = ctrl.IngestRejected()
	err := ctrl.WithSubstrate(func(sub *substrate.Fleet) error {
		if err := spec.fits(sub); err != nil {
			return err
		}
		b := spec.Baseline
		if b.VMsPerHost <= 0 {
			return nil
		}
		vcpus, mem := b.VCPUs, b.MemGB
		if vcpus <= 0 {
			vcpus = 4
		}
		if mem <= 0 {
			mem = 4
		}
		for i, host := range sub.IDs() {
			for k := 0; k < b.VMsPerHost; k++ {
				id := fmt.Sprintf("base-%s-%d", host, k)
				if err := placeHeavy(sub, i, id, vcpus, mem); err != nil {
					return fmt.Errorf("baseline %s: %w", id, err)
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", spec.Name, err)
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

// apply fires one event on the substrate the controller lends; a surge and
// its end also keep the list of VMs the surge placed.
func (r *Runner) apply(e Event) error {
	var err error
	switch e.Fault {
	case FaultLoadSurge:
		err = r.surge(e)
	case FaultLoadSurgeEnd:
		err = r.surgeEnd(e.Rack)
	default:
		err = r.ctrl.WithSubstrate(func(sub *substrate.Fleet) error { return inject(sub, e) })
	}
	if err != nil {
		return fmt.Errorf("scenario %s: round %d %s: %w", r.spec.Name, e.Round, e.Fault, err)
	}
	return nil
}

// inject applies one non-surge fault to the substrate.
func inject(sub *substrate.Fleet, e Event) error {
	switch e.Fault {
	case FaultCRACCapacity:
		return sub.SetCRACCoolingCapacity(e.Value)
	case FaultCRACSetpoint:
		return sub.SetCRACSetpointDelta(e.Value)
	case FaultCRACRecirc:
		return sub.SetCRACRecircMultiplier(e.Value)
	case FaultBlackout:
		sub.SetTelemetryDark(e.Value != 0)
		return nil
	case FaultSensor:
		return sub.SetSensorFault(e.Host, substrate.SensorFault{Mode: sensorModes[e.Mode], ValueC: e.Value})
	}
	return fmt.Errorf("unknown fault %q", e.Fault)
}

// sensorModes maps an event's mode string to the simulator's fault mode —
// the modes Validate accepts, besides "", which clears a fault (the map's
// zero value, SensorHealthy).
var sensorModes = map[string]substrate.SensorFaultMode{
	"stuck": substrate.SensorStuck, "dropped": substrate.SensorDropped,
	"nan": substrate.SensorNaN, "bias": substrate.SensorBiased,
}

// surge places the correlated load burst on every host of the rack.
func (r *Runner) surge(e Event) error {
	count := e.Count
	if count <= 0 {
		count = 1
	}
	vcpus := int(e.Value)
	if vcpus <= 0 {
		vcpus = 4
	}
	var placed []string
	err := r.ctrl.WithSubstrate(func(sub *substrate.Fleet) error {
		lo, hi, err := sub.RackSlots(e.Rack)
		if err != nil {
			return err
		}
		for i := lo; i < hi; i++ {
			for k := 0; k < count; k++ {
				id := fmt.Sprintf("surge-r%d-%s-%d", e.Rack, sub.IDs()[i], k)
				if err := placeHeavy(sub, i, id, vcpus, 2); err != nil {
					return fmt.Errorf("placing %s: %w", id, err)
				}
				placed = append(placed, id)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	r.mu.Lock()
	r.surgeVMs[e.Rack] = append(r.surgeVMs[e.Rack], placed...)
	r.mu.Unlock()
	return nil
}

// placeHeavy force-places a fleet.HeavyVMSpec on slot i. That builds one
// task per vCPU, and a spec may ask for 2e9 of them: a shape no host could
// hold is refused before it is built, not by Place after.
func placeHeavy(sub *substrate.Fleet, i int, id string, vcpus int, memGB float64) error {
	if err := fleet.ShapeError(sub.Host(i).Config(), vmm.VMConfig{VCPUs: vcpus, MemoryGB: memGB}); err != nil {
		return err
	}
	return sub.Place(i, fleet.HeavyVMSpec(id, vcpus, memGB))
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
	onset := r.spec.Onset()
	var hotIDs []string
	threshold := 0.0
	r.ctrl.ViewColumns(func(s *fleet.Snapshot) {
		threshold = s.ThresholdC
		for _, h := range s.HotSet() {
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
	// New refused a fleet without a substrate, so the lend cannot fail.
	_ = r.ctrl.WithSubstrate(func(sub *substrate.Fleet) error {
		for i, id := range sub.IDs() {
			t, _ := sub.Temps(i)
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
		return nil
	})
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
	Contained bool                 `json:"contained"`
	Rejected  int64                `json:"readings_rejected"`
	CRAC      substrate.CRACStatus `json:"crac"`
}

// Status snapshots the run's live state: fault count and CRAC state as the
// substrate holds them, plus the surges this runner placed. Safe for
// concurrent use with Step.
func (r *Runner) Status() Status {
	var faults int
	var crac substrate.CRACStatus
	_ = r.ctrl.WithSubstrate(func(sub *substrate.Fleet) error {
		faults, crac = sub.ActiveFaults(), sub.CRACStatus()
		return nil
	})
	r.mu.Lock()
	defer r.mu.Unlock()
	return Status{
		Name:         r.spec.Name,
		Active:       !r.done,
		Done:         r.done,
		Round:        r.round,
		TotalRounds:  r.spec.Rounds,
		OnsetRound:   r.spec.Onset(),
		FaultsActive: faults + len(r.surgeVMs),
		Hotspots:     r.curHotspots,
		StaleHosts:   r.curStale,
		Contained:    r.lastHotRound > 0 && r.curHotspots == 0,
		Rejected:     r.rejected,
		CRAC:         crac,
	}
}
