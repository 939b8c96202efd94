package fleet

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"

	"vmtherm/internal/cluster"
	"vmtherm/internal/mathx"
	"vmtherm/internal/sim"
	"vmtherm/internal/telemetry"
	"vmtherm/internal/thermal"
	"vmtherm/internal/vmm"
	"vmtherm/internal/workload"
)

// simSource adapts the simulated fleet to the telemetry.Source interface:
// advancing the source runs the physics for that window and the sensor
// sweep emits readings, so the controller consumes the simulator through
// exactly the same seam as trace replay and live scraping.
type simSource struct {
	fs *fleetSim
}

// Name identifies the source kind.
func (s *simSource) Name() string { return "sim" }

// NowS reports the simulation clock.
func (s *simSource) NowS() float64 { return s.fs.engine.Now() }

// Advance runs dtS seconds of simulated physics, emitting sensor samples.
func (s *simSource) Advance(dtS float64, emit func(telemetry.Reading) bool) error {
	return s.fs.advance(dtS, emit)
}

// drivenTask binds one task of a placed VM to the load profile that drives
// it — a flat, contiguous record the tick loop scans instead of walking
// nested vm→task profile maps.
type drivenTask struct {
	vm     *vmm.VM
	taskID string
	prof   workload.Profile
}

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

// simHost is one simulated machine of the fleet: capacity accounting
// (vmm.Host), heat (thermal.Server), a noisy sensor, and the load profiles
// driving its VMs' tasks over time.
type simHost struct {
	host    *vmm.Host
	server  *thermal.Server
	sensor  *thermal.Sensor
	pos     cluster.HostPosition
	rackIdx int // index into fleetSim.racks / rackInlets
	driven  []drivenTask
	// muted simulates a dead monitoring agent: the host keeps running and
	// heating, but emits no telemetry.
	muted bool
	// fault corrupts this host's emitted readings without touching its
	// physics: the sensor still reads (and draws noise) on schedule, the
	// transform applies at the emission point only.
	fault SensorFault
	// view memoises the running/migrating VMs as VMSpecs in
	// cluster.HostStateCase's order (see deployment); viewTasks backs their
	// Tasks slices. viewOK is cleared wherever the deployment or a task's
	// CPU fraction can change: place, migrate, remove and tickRack's
	// SetTaskCPU sweep — the only four. caseName is "state:"+id.
	view      []workload.VMSpec
	viewTasks []workload.TaskSpec
	viewOK    bool
	caseName  string
}

// deployment returns the host's running and migrating VMs exactly as
// cluster.HostStateCase lists them — VMs by id, tasks by id, current CPU
// fractions, no profiles — rebuilt only after an invalidation. The slice
// and everything it points to are the host's own scratch: callers read it
// before the next mutation or tick and never write through it.
func (sh *simHost) deployment() []workload.VMSpec {
	if sh.viewOK {
		return sh.view
	}
	h := sh.host
	nTasks := 0
	for i := 0; i < h.NumVMs(); i++ {
		nTasks += h.VMAt(i).NumTasks()
	}
	// Sized up front: the VMSpecs below hold sub-slices of viewTasks.
	sh.viewTasks = slices.Grow(sh.viewTasks[:0], nTasks)
	sh.view = sh.view[:0]
	for i := 0; i < h.NumVMs(); i++ {
		vm := h.VMAt(i)
		if st := vm.State(); st != vmm.VMRunning && st != vmm.VMMigrating {
			continue
		}
		spec := workload.VMSpec{ID: vm.ID(), Config: vm.Config()}
		if n := vm.NumTasks(); n > 0 { // a task-less VM keeps Tasks nil, like HostStateCase
			lo := len(sh.viewTasks)
			for k := 0; k < n; k++ {
				sh.viewTasks = append(sh.viewTasks, workload.TaskSpec{Task: vm.TaskAt(k)})
			}
			spec.Tasks = sh.viewTasks[lo:len(sh.viewTasks):len(sh.viewTasks)]
			slices.SortFunc(spec.Tasks, func(a, b workload.TaskSpec) int {
				return strings.Compare(a.Task.ID, b.Task.ID)
			})
		}
		sh.view = append(sh.view, spec)
	}
	slices.SortFunc(sh.view, func(a, b workload.VMSpec) int { return strings.Compare(a.ID, b.ID) })
	sh.viewOK = true
	return sh.view
}

// cracDynamics is the inter-rack CRAC supply/return coupling loop, active
// only once a scenario touches the cooling plant (the nil state is the
// bit-identical constant-supply physics every non-scenario run keeps).
// Each step the room's return-air temperature is the current supply plus
// the exhaust rise at the fleet's mean utilization; the unit cools that
// return stream by at most capacityFrac·maxCoolDeltaC, never below its
// (possibly excursed) setpoint; and the supply relaxes toward that target
// with a first-order lag. At full capacity the cooling delta exceeds any
// reachable exhaust rise, so the steady state is exactly the setpoint; at
// zero capacity the supply chases the return air and the room runs away.
type cracDynamics struct {
	setpointC      float64 // configured supply setpoint
	setpointDeltaC float64 // scenario excursion added to the setpoint
	capacityFrac   float64 // 1 = full cooling, 0 = failed CRAC
	recircMult     float64 // multiplier on the configured recirculation
	supplyC        float64 // current supply-air temperature (the state)
	baseRecirc     float64 // configured RecircPerUtil
	tauS           float64 // supply-air first-order lag
	exhaustRiseC   float64 // return-air rise at 100% fleet utilization
	maxCoolDeltaC  float64 // return→supply cooling delta at full capacity
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

// fleetSim is the simulated datacenter the controller closes its loop
// against: racks of simHosts under one CRAC on a shared discrete-event
// engine. It is the stand-in for the physical fleet a production deployment
// would observe through its monitoring agents.
type fleetSim struct {
	cfg    Config
	engine *sim.Engine
	dc     *cluster.Datacenter
	hosts  map[string]*simHost
	order  []string   // host ids in rack/slot order (deterministic iteration)
	byPos  []*simHost // hosts in order, for map-free tick/sample sweeps
	racks  []*cluster.Rack
	// rackSpan[ri] is rack ri's contiguous [start, end) range in byPos/order:
	// the shard boundary of the parallel tick (every mutation a tick performs
	// is confined to one rack's span).
	rackSpan [][2]int
	// rackInlets caches each rack's per-slot inlet temperatures for the
	// current tick: rack mean utilization is O(hosts) to derive, so
	// recomputing it per host per tick would make ticks O(hosts²).
	rackInlets [][]float64
	// tickUtil/tickMem hold each host's load for the current tick (indexed
	// like byPos): one Loads sweep per host feeds both the rack inlet model
	// and the thermal integration instead of three separate VM-list walks.
	tickUtil, tickMem []float64
	// sample* are the sensor-sweep scratch for the rack-sharded read phase
	// (indexed like byPos); emission consumes them serially in host order.
	sampleVal, sampleUtil, sampleMem []float64
	sampleOK                         []bool
	// vmHost maps every placed VM id to its current host: vmm only enforces
	// per-host uniqueness, but migration addresses VMs by id fleet-wide, so
	// duplicates (e.g. a retried placement request) must be rejected here.
	vmHost map[string]string
	// crac is the supply/return coupling state; nil until a scenario first
	// touches the cooling plant, so unscripted runs never enter the
	// coupling step and stay bit-identical to the pre-scenario physics.
	crac *cracDynamics
	// dark is a fleet-wide telemetry blackout: every host keeps running and
	// heating, but the sensor sweep emits nothing (and, like muted hosts,
	// performs no reads or rng draws while dark).
	dark bool
}

// newFleetSim assembles Racks × HostsPerRack machines, all idle and at
// ambient temperature.
func newFleetSim(cfg Config) (*fleetSim, error) {
	fs := &fleetSim{
		cfg:    cfg,
		engine: sim.NewEngine(),
		hosts:  make(map[string]*simHost, cfg.Racks*cfg.HostsPerRack),
		vmHost: make(map[string]string),
	}
	var racks []*cluster.Rack
	for r := 0; r < cfg.Racks; r++ {
		hosts := make([]*vmm.Host, cfg.HostsPerRack)
		offsets := make([]float64, cfg.HostsPerRack)
		for s := 0; s < cfg.HostsPerRack; s++ {
			id := fmt.Sprintf("r%d-h%d", r, s)
			h, err := vmm.NewHost(id, cfg.HostShape)
			if err != nil {
				return nil, fmt.Errorf("fleet: host %s: %w", id, err)
			}
			hosts[s] = h
			if cfg.HostsPerRack > 1 {
				offsets[s] = cfg.RackSpreadC * float64(s) / float64(cfg.HostsPerRack-1)
			}
		}
		rack, err := cluster.NewRack(fmt.Sprintf("r%d", r), hosts, offsets)
		if err != nil {
			return nil, err
		}
		racks = append(racks, rack)
	}
	dc, err := cluster.NewDatacenter(cfg.CRAC, racks)
	if err != nil {
		return nil, err
	}
	fs.dc = dc
	fs.racks = racks
	fs.rackInlets = make([][]float64, len(racks))

	rackIdx := make(map[*cluster.Rack]int, len(racks))
	for i, r := range racks {
		rackIdx[r] = i
	}
	for _, pos := range dc.AllHosts() {
		h := pos.Rack.Hosts()[pos.Slot]
		inlet, err := dc.InletTemp(pos.Rack, pos.Slot)
		if err != nil {
			return nil, err
		}
		sp := cfg.Server
		sp.FanCount = cfg.FanCount
		sp.AmbientC = inlet
		srv, err := thermal.NewServer(sp)
		if err != nil {
			return nil, fmt.Errorf("fleet: thermal %s: %w", h.ID(), err)
		}
		sensor, err := thermal.NewSensor(cfg.Sensor, srv.DieTemp,
			mathx.SplitStable(cfg.Seed, "fleet-sensor:"+h.ID()))
		if err != nil {
			return nil, fmt.Errorf("fleet: sensor %s: %w", h.ID(), err)
		}
		sh := &simHost{
			host:     h,
			server:   srv,
			sensor:   sensor,
			pos:      pos,
			rackIdx:  rackIdx[pos.Rack],
			caseName: "state:" + h.ID(),
		}
		fs.hosts[h.ID()] = sh
		fs.order = append(fs.order, h.ID())
		fs.byPos = append(fs.byPos, sh)
	}
	fs.rackSpan = make([][2]int, len(racks))
	for i, sh := range fs.byPos {
		if i == 0 || sh.rackIdx != fs.byPos[i-1].rackIdx {
			fs.rackSpan[sh.rackIdx][0] = i
		}
		fs.rackSpan[sh.rackIdx][1] = i + 1
	}
	fs.tickUtil = make([]float64, len(fs.byPos))
	fs.tickMem = make([]float64, len(fs.byPos))
	fs.sampleVal = make([]float64, len(fs.byPos))
	fs.sampleUtil = make([]float64, len(fs.byPos))
	fs.sampleMem = make([]float64, len(fs.byPos))
	fs.sampleOK = make([]bool, len(fs.byPos))
	return fs, nil
}

// place admits a VM onto a host, starts it, and registers its task
// profiles so the tick loop drives them.
func (fs *fleetSim) place(hostID string, spec workload.VMSpec) error {
	sh, ok := fs.hosts[hostID]
	if !ok {
		return fmt.Errorf("fleet: unknown host %q", hostID)
	}
	if cur, dup := fs.vmHost[spec.ID]; dup {
		return fmt.Errorf("fleet: vm %q already placed on %q", spec.ID, cur)
	}
	sh.viewOK = false
	vm, err := vmm.NewVM(spec.ID, spec.Config)
	if err != nil {
		return err
	}
	for _, ts := range spec.Tasks {
		if err := vm.AddTask(ts.Task); err != nil {
			return err
		}
	}
	if err := sh.host.Place(vm); err != nil {
		return err
	}
	if err := vm.Start(fs.engine.Now()); err != nil {
		_ = sh.host.Remove(vm.ID())
		return err
	}
	for _, ts := range spec.Tasks {
		if ts.Profile != nil {
			sh.driven = append(sh.driven, drivenTask{vm: vm, taskID: ts.Task.ID, prof: ts.Profile})
		}
	}
	fs.vmHost[spec.ID] = hostID
	return nil
}

// migrate moves a VM between hosts instantaneously (the controller models
// migration cost in its proposal policy, not in the mechanics).
func (fs *fleetSim) migrate(vmID, fromID, toID string) error {
	src, ok := fs.hosts[fromID]
	if !ok {
		return fmt.Errorf("fleet: unknown source host %q", fromID)
	}
	dst, ok := fs.hosts[toID]
	if !ok {
		return fmt.Errorf("fleet: unknown target host %q", toID)
	}
	vm, err := src.host.VM(vmID)
	if err != nil {
		return err
	}
	src.viewOK, dst.viewOK = false, false
	if err := dst.host.Place(vm); err != nil {
		return err
	}
	if err := src.host.Remove(vmID); err != nil {
		_ = dst.host.Remove(vmID)
		return err
	}
	// Move the VM's driven-task records to the destination host.
	kept := src.driven[:0]
	for _, d := range src.driven {
		if d.vm.ID() == vmID {
			dst.driven = append(dst.driven, d)
		} else {
			kept = append(kept, d)
		}
	}
	src.driven = kept
	fs.vmHost[vmID] = toID
	return nil
}

// remove evicts a VM from the fleet entirely — the inverse of place, used
// by scenarios to end a scripted load surge. The VM's driven-task records
// are dropped so the tick loop stops driving it.
func (fs *fleetSim) remove(vmID string) error {
	hostID, ok := fs.vmHost[vmID]
	if !ok {
		return errNoSuchVM
	}
	sh := fs.hosts[hostID]
	sh.viewOK = false
	if err := sh.host.Remove(vmID); err != nil {
		return err
	}
	kept := sh.driven[:0]
	for _, d := range sh.driven {
		if d.vm.ID() != vmID {
			kept = append(kept, d)
		}
	}
	for i := len(kept); i < len(sh.driven); i++ {
		sh.driven[i] = drivenTask{} // release the removed VM
	}
	sh.driven = kept
	delete(fs.vmHost, vmID)
	return nil
}

// tick drives one simulation step: task loads from profiles, rack inlet
// temperatures (recirculation couples hosts through rack utilization), and
// thermal integration. The work partitions cleanly by rack — a rack's
// inlets depend only on its own hosts' utilization, and each server's heat
// only on its own rack's inlet — so racks advance independently: serially
// when PhysWorkers is 1, sharded across a bounded worker pool otherwise.
// Both paths run the identical per-rack code in a fixed reduction order, so
// results are bit-identical regardless of worker count or interleaving.
func (fs *fleetSim) tick(dt float64) error {
	t := fs.engine.Now()
	if err := fs.shardRacks(func(lo, hi int) error {
		for ri := lo; ri < hi; ri++ {
			if err := fs.tickRack(ri, t, dt); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	// Inter-rack coupling runs serially *between* rack advances: it reads
	// the load sweep every shard just published and writes the CRAC state
	// the next tick's shards will all read, so the shard pass itself never
	// crosses a rack boundary. A nil receiver — every run that never
	// scripted a CRAC fault — returns immediately, keeping the unscripted
	// tick byte-identical to the pre-coupling physics.
	fs.coupleCRAC(dt)
	return nil
}

// coupleCRAC advances the CRAC supply/return loop one step; see
// cracDynamics for the model. No-op until a scenario activates the plant.
func (fs *fleetSim) coupleCRAC(dt float64) {
	cd := fs.crac
	if cd == nil {
		return
	}
	var sum float64
	for _, u := range fs.tickUtil {
		sum += u
	}
	mean := sum / float64(len(fs.tickUtil))
	returnC := cd.supplyC + cd.exhaustRiseC*mean
	target := returnC - cd.capacityFrac*cd.maxCoolDeltaC
	if sp := cd.setpointC + cd.setpointDeltaC; target < sp {
		target = sp
	}
	cd.supplyC += (dt / cd.tauS) * (target - cd.supplyC)
	fs.dc.SetCRAC(cluster.CRAC{
		SupplyC:       cd.supplyC,
		RecircPerUtil: cd.baseRecirc * cd.recircMult,
	})
}

// cracState lazily activates the coupling loop, seeded from the configured
// (so far constant) CRAC: the first scenario touch is the moment the plant
// becomes dynamic.
func (fs *fleetSim) cracState() *cracDynamics {
	if fs.crac == nil {
		c := fs.dc.CRAC()
		fs.crac = &cracDynamics{
			setpointC:     c.SupplyC,
			capacityFrac:  1,
			recircMult:    1,
			supplyC:       c.SupplyC,
			baseRecirc:    c.RecircPerUtil,
			tauS:          cracTauS,
			exhaustRiseC:  cracExhaustRiseC,
			maxCoolDeltaC: cracMaxCoolDeltaC,
		}
	}
	return fs.crac
}

// shardRacks runs fn over contiguous rack ranges [lo, hi) — one call
// covering every rack with one physics worker, one goroutine per range
// otherwise — reporting the first error in rack order (see shard).
func (fs *fleetSim) shardRacks(fn func(lo, hi int) error) error {
	return shard(len(fs.racks), fs.cfg.PhysWorkers, 1, fn)
}

// tickRack advances one rack through a full simulation step. Loads first,
// then inlets, then thermal integration: recirculation sees this tick's
// utilization, exactly as the former whole-fleet phase ordering did —
// reordering per rack is value-identical because no phase reads another
// rack's state. Each host's (util, mem) is derived in ONE walk over its VM
// list and reused for both the rack-mean inlet model and SetLoad, replacing
// the three walks (MeanUtilization + Utilization + MemActiveFrac) the
// serial loop used to pay.
func (fs *fleetSim) tickRack(ri int, t, dt float64) error {
	span := fs.rackSpan[ri]
	for i := span[0]; i < span[1]; i++ {
		sh := fs.byPos[i]
		if len(sh.driven) > 0 {
			sh.viewOK = false // the sweep rewrites task CPU fractions
		}
		for j := range sh.driven {
			d := &sh.driven[j]
			if st := d.vm.State(); st != vmm.VMRunning && st != vmm.VMMigrating {
				continue
			}
			if err := d.vm.SetTaskCPU(d.taskID, d.prof.At(t)); err != nil {
				return err
			}
		}
	}
	var utilSum float64
	for i := span[0]; i < span[1]; i++ {
		u, m := fs.byPos[i].host.Loads()
		fs.tickUtil[i], fs.tickMem[i] = u, m
		utilSum += u
	}
	mean := utilSum / float64(span[1]-span[0])
	inlets, err := fs.dc.RackInletTempsAt(fs.racks[ri], mean, fs.rackInlets[ri][:0])
	if err != nil {
		return err
	}
	fs.rackInlets[ri] = inlets
	for i := span[0]; i < span[1]; i++ {
		sh := fs.byPos[i]
		sh.server.SetAmbient(inlets[sh.pos.Slot])
		sh.server.SetLoad(fs.tickUtil[i], fs.tickMem[i])
		if err := sh.server.Advance(dt); err != nil {
			return err
		}
	}
	return nil
}

// simParallelMinHosts gates the auxiliary rack-sharded sweeps (sensor
// sampling, anchor fingerprint scans): below this population the goroutine
// fan-out costs more than the sweep itself — and small warm fleets keep
// their zero-allocation anchor-pass contract. The tick itself is always
// sharded (its per-rack work is orders of magnitude heavier). Values are
// bit-identical on both sides of the gate.
const simParallelMinHosts = 1024

// sample reads every host's sensor once and emits the readings, exactly as
// a fleet of monitoring agents would. At scale the sensor reads and load
// sweeps run rack-sharded into per-host scratch (each host owns its sensor
// rng, so draws are independent); emission stays serial and in host order,
// so the reading stream — and therefore ingest accounting, tee captures and
// recorded traces — is byte-identical to the serial sweep.
func (fs *fleetSim) sample(emit func(telemetry.Reading) bool) {
	if fs.dark {
		// Fleet-wide telemetry blackout: the hosts run on and keep heating,
		// but the whole sweep — reads, rng draws, emission — goes dark,
		// exactly like muting every agent at once.
		return
	}
	t := fs.engine.Now()
	parallel := fs.cfg.PhysWorkers > 1 && len(fs.byPos) >= simParallelMinHosts
	if parallel {
		// Sensor and load sweeps cannot fail (read errors become skipped
		// samples), so the shard error path is unreachable here.
		_ = fs.shardRacks(func(lo, hi int) error {
			for i := fs.rackSpan[lo][0]; i < fs.rackSpan[hi-1][1]; i++ {
				sh := fs.byPos[i]
				if sh.muted {
					continue // dead agent: no read, no rng draw
				}
				v, err := sh.sensor.Read()
				fs.sampleOK[i] = err == nil
				fs.sampleVal[i] = v
				fs.sampleUtil[i], fs.sampleMem[i] = sh.host.Loads()
			}
			return nil
		})
	}
	for i, sh := range fs.byPos {
		if sh.muted {
			continue // dead agent: host runs on, telemetry goes dark
		}
		var v, util, mem float64
		if parallel {
			if !fs.sampleOK[i] {
				continue // transient sensor failure: the sample is simply lost
			}
			v, util, mem = fs.sampleVal[i], fs.sampleUtil[i], fs.sampleMem[i]
		} else {
			var err error
			if v, err = sh.sensor.Read(); err != nil {
				continue // transient sensor failure: the sample is simply lost
			}
			util, mem = sh.host.Loads()
		}
		// Injected sensor faults corrupt the *emitted* value only: the read
		// (and its rng draw) already happened on the healthy schedule, so
		// clearing a fault restores the exact healthy reading stream.
		switch sh.fault.Mode {
		case SensorDropped:
			continue
		case SensorStuck:
			v = sh.fault.ValueC
		case SensorNaN:
			v = math.NaN()
		case SensorBiased:
			v += sh.fault.ValueC
		}
		emit(Reading{
			HostID:  fs.order[i],
			AtS:     t,
			TempC:   v,
			Util:    util,
			MemFrac: mem,
		})
	}
}

// advance runs the simulation forward by dur seconds, ticking thermals
// every cfg.TickS and sampling telemetry every cfg.SampleS. Events are
// scheduled explicitly (not via Every, whose immediate first fire would
// double-tick at round boundaries); ticks are scheduled before samples so a
// coincident sample observes the post-advance temperature.
func (fs *fleetSim) advance(dur float64, emit func(telemetry.Reading) bool) error {
	start := fs.engine.Now()
	horizon := start + dur
	var tickErr error
	for k := 1; ; k++ {
		at := start + float64(k)*fs.cfg.TickS
		if at > horizon+1e-9 {
			break
		}
		if err := fs.engine.Schedule(at, "fleet-tick", func(e *sim.Engine) {
			if tickErr == nil {
				if err := fs.tick(fs.cfg.TickS); err != nil {
					tickErr = err
					e.Stop()
				}
			}
		}); err != nil {
			return err
		}
	}
	for k := 1; ; k++ {
		at := start + float64(k)*fs.cfg.SampleS
		if at > horizon+1e-9 {
			break
		}
		if err := fs.engine.Schedule(at, "fleet-sample", func(*sim.Engine) {
			fs.sample(emit)
		}); err != nil {
			return err
		}
	}
	if _, err := fs.engine.RunUntil(horizon); err != nil {
		return err
	}
	if tickErr != nil {
		return fmt.Errorf("fleet: tick: %w", tickErr)
	}
	return nil
}

// hostCase is the package's one host → workload.Case builder: the host's
// current deployment (see simHost.deployment) at ambientC, plus an optional
// candidate VM. Without a candidate the case borrows the host's view; with
// one, view and candidate are copied to the end of *arena, the caller's
// scratch, which it resets once the cases built from it are consumed. The
// result is reflect.DeepEqual to cluster.HostStateCase's.
func (fs *fleetSim) hostCase(sh *simHost, ambientC float64, candidate *workload.VMSpec, arena *[]workload.VMSpec) (workload.Case, error) {
	vms := sh.deployment()
	if candidate != nil {
		lo := len(*arena)
		*arena = append(append(*arena, vms...), *candidate)
		vms = (*arena)[lo:]
	}
	if len(vms) == 0 {
		return workload.Case{}, errors.New("fleet: host state has no running VMs")
	}
	return workload.Case{
		Name:     sh.caseName,
		Host:     sh.host.Config(),
		FanCount: fs.cfg.FanCount,
		AmbientC: ambientC,
		VMs:      vms[:len(vms):len(vms)],
	}, nil
}

// inletAt returns a host's inlet temperature from the per-tick rack cache
// when populated — utilization cannot change between the last tick and the
// controller's anchor pass, so the cached value is identical to a fresh
// InletTemp and skips the O(rack) mean-utilization sweep per host. Before
// any tick has run it computes directly.
func (fs *fleetSim) inletAt(sh *simHost) (float64, error) {
	if inlets := fs.rackInlets[sh.rackIdx]; sh.pos.Slot < len(inlets) {
		return inlets[sh.pos.Slot], nil
	}
	return fs.dc.InletTemp(sh.pos.Rack, sh.pos.Slot)
}

// errNoSuchVM distinguishes a vanished migration source VM.
var errNoSuchVM = errors.New("fleet: vm not found")

// largestVM returns the running VM with the highest current CPU demand on a
// host, the natural candidate to move off a hotspot.
func (fs *fleetSim) largestVM(hostID string) (*vmm.VM, error) {
	sh, ok := fs.hosts[hostID]
	if !ok {
		return nil, fmt.Errorf("fleet: unknown host %q", hostID)
	}
	var best *vmm.VM
	for _, vm := range sh.host.VMs() { // sorted by ID: deterministic ties
		if vm.State() != vmm.VMRunning {
			continue
		}
		if best == nil || vm.CPUDemandVCPUs() > best.CPUDemandVCPUs() {
			best = vm
		}
	}
	if best == nil {
		return nil, errNoSuchVM
	}
	return best, nil
}
