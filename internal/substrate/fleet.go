// Package substrate is the simulated datacenter the fleet control plane
// closes its loop against — the stand-in for the paper's physical testbed:
// racks of hosts (capacity accounting, heat, a noisy sensor, the load
// profiles driving their tenants) under one CRAC on one clock. A *Fleet is
// a telemetry.Source: advancing it runs the physics and the sensor sweep
// emits readings, so the controller consumes it through the same seam as
// trace replay and live scraping.
//
// The package also owns what only a simulated fleet has: the fault hooks a
// thermal-emergency scenario scripts (fault.go) and the deployment
// fingerprints the controller's anchor cache keys on (ScanAnchors). A
// single-server experiment is a one-host fleet (onehost.go): the Eq. (1)
// training records and the fleet's rounds run on the same simulator.
//
// Hosts are addressed by slot: their index in rack/slot order, the order of
// IDs. A Fleet is not safe for concurrent use; the controller makes every
// call under its round lock. Errors keep the "fleet:" prefix the control
// plane's placement decisions and reports have always carried.
package substrate

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"

	"vmtherm/internal/anchorcache"
	"vmtherm/internal/mathx"
	"vmtherm/internal/shard"
	"vmtherm/internal/telemetry"
	"vmtherm/internal/thermal"
	"vmtherm/internal/vmm"
	"vmtherm/internal/workload"
)

// drivenTask binds one task of a placed VM to the load profile that drives
// it — a flat, contiguous record the tick loop scans instead of walking
// nested vm→task profile maps. task is the task's deployment-order index in
// vm (the spec's task position, fixed at place), so a tick sets the fraction
// without looking the task up by name. A workload.Constant is retired once
// tickRack has applied it — on the first tick its VM runs or migrates —
// since it would only set the same level again; the VM carries the level
// wherever it migrates.
type drivenTask struct {
	vm   *vmm.VM
	task int
	prof workload.Profile
}

// simHost is one simulated machine of the fleet: capacity accounting
// (vmm.Host), heat (thermal.Server), a noisy sensor, and the load profiles
// driving its VMs' tasks over time.
type simHost struct {
	host   *vmm.Host
	server *thermal.Server
	sensor *thermal.Sensor
	driven []drivenTask
	// fault corrupts this host's emitted readings without touching its
	// physics: the sensor still reads (and takes its next noise value) on
	// schedule, the transform applies at the emission point only.
	fault SensorFault
	// view memoises the placed VMs as VMSpecs in HostStateCase's order
	// (see deployment); viewTasks backs their Tasks slices. util and mem
	// memoise host.Loads() (see loads). Both memos hold until invalidate,
	// which also advances gen, the deployment generation that memos kept
	// outside the substrate key on (see Fleet.Generation).
	view      []workload.VMSpec
	viewTasks []workload.TaskSpec
	viewOK    bool
	util, mem float64
	loadsOK   bool
	gen       uint64
}

// invalidate drops the memos a change to the deployment or to a task's CPU
// fraction makes stale, and advances the deployment generation. Place,
// Migrate, Remove and tickRack's sweep over driven (SetTaskCPU by task
// index) when a driver ran are its only four callers: a new way to mutate a
// host must call it too.
func (sh *simHost) invalidate() { sh.viewOK, sh.loadsOK = false, false; sh.gen++ }

// loads returns host.Loads(), summed again only after an invalidation.
func (sh *simHost) loads() (util, mem float64) {
	if !sh.loadsOK {
		sh.util, sh.mem = sh.host.Loads()
		sh.loadsOK = true
	}
	return sh.util, sh.mem
}

// deployment returns the host's VMs exactly as HostStateCase lists them —
// VMs by id, tasks by id, current CPU fractions, no profiles — rebuilt only
// after an invalidation. The slice and everything it points to are the
// host's own scratch: callers read it before the next mutation or tick and
// never write through it.
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

// takeDriven moves vmID's driven-task records to dst, or drops them when
// dst is nil; the others keep their order, and the vacated tail is cleared
// so sh no longer holds the VM.
func (sh *simHost) takeDriven(vmID string, dst *simHost) {
	kept := sh.driven[:0]
	for _, d := range sh.driven {
		if d.vm.ID() != vmID {
			kept = append(kept, d)
		} else if dst != nil {
			dst.driven = append(dst.driven, d)
		}
	}
	clear(sh.driven[len(kept):])
	sh.driven = kept
}

// Fleet is the simulated datacenter: racks of simHosts under one CRAC on
// one clock.
type Fleet struct {
	cfg      Config
	fanCount int
	workers  int // physics worker bound (1 = serial tick)
	// now is the simulation clock; carry holds the events an Advance
	// scheduled just past its horizon (see Advance).
	now   float64
	carry []event
	// tickFn is tickRacks bound once in New, so handing it to shard.Run
	// allocates nothing per tick.
	tickFn func(lo, hi int) error
	order  []string       // host ids by slot (rack/slot order)
	hosts  []*simHost     // hosts by slot, for map-free tick/sample sweeps
	slotOf map[string]int // host id → slot
	// cool is the CRAC the inlets read: cfg.CRAC until coupleCRAC first
	// runs, the coupling loop's state after.
	cool CRAC
	// offsets[s] is slot s's inlet offset, the same in every rack: the
	// spread RackSpreadC·s/(HostsPerRack−1).
	offsets []float64
	// rackSpan[ri] is rack ri's contiguous [start, end) slot range: the
	// shard boundary of the parallel tick (every mutation a tick performs
	// is confined to one rack's span).
	rackSpan [][2]int
	// rackInlets caches each rack's per-slot inlet temperatures for the
	// current tick: rack mean utilization is O(hosts) to derive, so
	// recomputing it per host per tick would make ticks O(hosts²).
	rackInlets [][]float64
	// sample* are the sensor-sweep scratch for the rack-sharded read phase
	// (by slot); emission consumes them serially in slot order.
	sampleVal, sampleUtil, sampleMem []float64
	// tickUtil and tickCurve are the power-curve memo (by slot): the last
	// effective utilization a tick saw on the host and its curve point. A
	// tick recomputes only the points whose utilization's bits changed,
	// gathered from the rack into blocks for thermal.UtilCurves; equal bits
	// in give equal bits out, so a host whose load holds skips the curve.
	// Both start at +0, whose point is +0. stale is each rack's gather
	// buffer (by rack).
	tickUtil, tickCurve []float64
	stale               []curveBlock
	// scanInlets and scanKeys are ScanAnchors' results (by slot).
	scanInlets []float64
	scanKeys   []anchorcache.Key
	// vmHost maps every placed VM id to its current slot: vmm only enforces
	// per-host uniqueness, but migration addresses VMs by id fleet-wide, so
	// duplicates (e.g. a retried placement request) must be rejected here.
	vmHost map[string]int
	// crac is the supply/return coupling state; nil until a scenario first
	// touches the cooling plant, so unscripted runs never enter the
	// coupling step and stay bit-identical to the pre-scenario physics.
	crac *cracDynamics
	// dark is a fleet-wide telemetry blackout: every host keeps running and
	// heating, but the sensor sweep emits nothing (and performs no reads, so
	// no sensor takes a noise value or draws while dark).
	dark bool
}

// New assembles cfg.Racks × cfg.HostsPerRack machines of the given shape
// and fan count, all idle and at ambient temperature. workers bounds the
// goroutines the tick, the sensor sweep and ScanAnchors shard racks across
// (1 runs them serially); results are bit-identical for every value. cfg
// must be valid (Config.Validate). Rack r's slot s is host "r<r>-h<s>", and
// its sensor draws from the stream "fleet-sensor:" + that id, staggered by
// the host's fleet-wide slot (thermal.NewSensor).
func New(cfg Config, shape vmm.HostConfig, fanCount, workers int) (*Fleet, error) {
	return newFleet(cfg, shape, fanCount, workers, func(r, s int) (string, string) {
		id := fmt.Sprintf("r%d-h%d", r, s)
		return id, "fleet-sensor:" + id
	})
}

// newFleet is New with the naming left to the caller: name returns rack r's
// slot s's host id and the name of its sensor's RNG stream.
func newFleet(cfg Config, shape vmm.HostConfig, fanCount, workers int, name func(r, s int) (id, stream string)) (*Fleet, error) {
	f := &Fleet{
		cfg:        cfg,
		fanCount:   fanCount,
		workers:    workers,
		slotOf:     make(map[string]int, cfg.Racks*cfg.HostsPerRack),
		vmHost:     make(map[string]int),
		cool:       cfg.CRAC,
		offsets:    make([]float64, cfg.HostsPerRack),
		rackSpan:   make([][2]int, cfg.Racks),
		rackInlets: make([][]float64, cfg.Racks),
	}
	f.tickFn = f.tickRacks
	if cfg.HostsPerRack > 1 {
		for s := range f.offsets {
			f.offsets[s] = cfg.RackSpreadC * float64(s) / float64(cfg.HostsPerRack-1)
		}
	}
	for r := range f.rackSpan {
		f.rackSpan[r][0] = len(f.hosts)
		for s, off := range f.offsets {
			id, stream := name(r, s)
			h, err := vmm.NewHost(id, shape)
			if err != nil {
				return nil, fmt.Errorf("fleet: host %s: %w", id, err)
			}
			// An idle rack's inlet is the slot's ambient.
			srv, err := thermal.NewServer(thermal.ServerParams{FanCount: fanCount, AmbientC: cfg.CRAC.SupplyC + off})
			if err != nil {
				return nil, fmt.Errorf("fleet: thermal %s: %w", id, err)
			}
			sensor, err := thermal.NewSensor(cfg.Sensor, srv.DieTemp, mathx.SplitStable(cfg.Seed, stream), len(f.hosts))
			if err != nil {
				return nil, fmt.Errorf("fleet: sensor %s: %w", id, err)
			}
			f.slotOf[id] = len(f.hosts)
			f.order = append(f.order, id)
			f.hosts = append(f.hosts, &simHost{host: h, server: srv, sensor: sensor, gen: 1})
		}
		f.rackSpan[r][1] = len(f.hosts)
	}
	n := len(f.hosts)
	buf := make([]float64, 6*n)
	f.sampleVal, f.sampleUtil, f.sampleMem, f.scanInlets = buf[:n:n], buf[n:2*n:2*n], buf[2*n:3*n:3*n], buf[3*n:4*n:4*n]
	f.tickUtil, f.tickCurve = buf[4*n:5*n:5*n], buf[5*n:]
	f.stale = make([]curveBlock, cfg.Racks)
	f.scanKeys = make([]anchorcache.Key, n)
	return f, nil
}

// Name identifies the source kind.
func (f *Fleet) Name() string { return "sim" }

// NowS reports the simulation clock.
func (f *Fleet) NowS() float64 { return f.now }

// IDs lists the host ids by slot. The slice is the fleet's own: read it,
// never write it.
func (f *Fleet) IDs() []string { return f.order }

// Slot resolves a host id to its slot.
func (f *Fleet) Slot(hostID string) (int, bool) {
	i, ok := f.slotOf[hostID]
	return i, ok
}

// Host is the capacity accounting of the host in slot i.
func (f *Fleet) Host(i int) *vmm.Host { return f.hosts[i].host }

// Owner returns the slot of the host a VM is placed on.
func (f *Fleet) Owner(vmID string) (int, bool) {
	i, ok := f.vmHost[vmID]
	return i, ok
}

// Temps reads slot i's true (noise-free) die and case temperatures — the
// grading oracle for scenario runs; the control loop only sees telemetry.
func (f *Fleet) Temps(i int) (dieC, caseC float64) {
	return f.hosts[i].server.DieTemp(), f.hosts[i].server.CaseTemp()
}

// Place admits a VM onto the host in slot i, where it runs from now on, and
// registers its task profiles so the tick loop drives them.
func (f *Fleet) Place(i int, spec workload.VMSpec) error {
	if cur, dup := f.vmHost[spec.ID]; dup {
		return fmt.Errorf("fleet: vm %q already placed on %q", spec.ID, f.order[cur])
	}
	sh := f.hosts[i]
	sh.invalidate()
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
	for k, ts := range spec.Tasks {
		if ts.Profile != nil {
			sh.driven = append(sh.driven, drivenTask{vm: vm, task: k, prof: ts.Profile})
		}
	}
	f.vmHost[spec.ID] = i
	return nil
}

// Migrate moves a VM between the hosts in slots from and to
// instantaneously (the controller models migration cost in its proposal
// policy, not in the mechanics).
func (f *Fleet) Migrate(vmID string, from, to int) error {
	src, dst := f.hosts[from], f.hosts[to]
	vm, err := src.host.VM(vmID)
	if err != nil {
		return err
	}
	src.invalidate()
	dst.invalidate()
	if err := dst.host.Place(vm); err != nil {
		return err
	}
	if err := src.host.Remove(vmID); err != nil {
		_ = dst.host.Remove(vmID)
		return err
	}
	src.takeDriven(vmID, dst)
	f.vmHost[vmID] = to
	return nil
}

// ErrNoSuchVM is the error for a VM id no host carries.
var ErrNoSuchVM = errors.New("fleet: vm not found")

// Remove evicts a VM from the fleet entirely — the inverse of Place, used
// by scenarios to end a scripted load surge — and returns the slot it left.
// The VM's driven-task records are dropped so the tick loop stops driving
// it.
func (f *Fleet) Remove(vmID string) (int, error) {
	i, ok := f.vmHost[vmID]
	if !ok {
		return 0, ErrNoSuchVM
	}
	sh := f.hosts[i]
	sh.invalidate()
	if err := sh.host.Remove(vmID); err != nil {
		return 0, err
	}
	sh.takeDriven(vmID, nil)
	delete(f.vmHost, vmID)
	return i, nil
}

// LargestVM returns the VM with the highest current CPU demand on slot i,
// the natural candidate to move off a hotspot; of equal demands the lowest
// id wins, so the pick does not depend on placement order.
func (f *Fleet) LargestVM(i int) (*vmm.VM, error) {
	h := f.hosts[i].host
	var best *vmm.VM
	var bestDemand float64
	for k := 0; k < h.NumVMs(); k++ {
		vm := h.VMAt(k)
		d := vm.CPUDemandVCPUs()
		if best == nil || d > bestDemand || (d == bestDemand && vm.ID() < best.ID()) {
			best, bestDemand = vm, d
		}
	}
	if best == nil {
		return nil, ErrNoSuchVM
	}
	return best, nil
}

// tick drives one simulation step: task loads from profiles, rack inlet
// temperatures (recirculation couples hosts through rack utilization), and
// thermal integration. The work partitions cleanly by rack — a rack's
// inlets depend only on its own hosts' utilization, and each server's heat
// only on its own rack's inlet — so racks advance independently: serially
// with one worker, sharded across a bounded worker pool otherwise. Both
// paths run the identical per-rack code in a fixed reduction order, so
// results are bit-identical regardless of worker count or interleaving.
// The step is TickS long and its profiles are read at the clock.
func (f *Fleet) tick() error {
	if err := f.shardRacks(f.tickFn); err != nil {
		return err
	}
	// Inter-rack coupling runs serially *between* rack advances: it reads
	// the load sweep every shard just published and writes the CRAC state
	// the next tick's shards will all read, so the shard pass itself never
	// crosses a rack boundary. A nil receiver — every run that never
	// scripted a CRAC fault — returns immediately, keeping the unscripted
	// tick byte-identical to the pre-coupling physics.
	f.coupleCRAC(f.cfg.TickS)
	return nil
}

// tickRacks is racks [lo, hi)'s share of a tick.
func (f *Fleet) tickRacks(lo, hi int) error {
	for ri := lo; ri < hi; ri++ {
		if err := f.tickRack(ri, f.now, f.cfg.TickS); err != nil {
			return err
		}
	}
	return nil
}

// shardRacks runs fn over contiguous rack ranges [lo, hi) — one call
// covering every rack with one physics worker, one goroutine per range
// otherwise — reporting the first error in rack order.
func (f *Fleet) shardRacks(fn func(lo, hi int) error) error {
	return shard.Run(len(f.rackSpan), f.workers, 1, fn)
}

// tickRack advances one rack through a full simulation step. Loads first,
// then inlets, then thermal integration: recirculation sees this tick's
// utilization. A host's (util, mem) is summed over its VM list only when a
// driver ran or its deployment changed since the last sum (simHost.loads),
// and feeds both the rack-mean inlet model and SetLoad. A constant profile
// the sweep applied leaves driven (see drivenTask). The integration is
// three passes over the rack: each server's ambient, load and effective
// utilization, with the stale curve points gathered (see tickUtil); their
// new points from thermal.UtilCurves, a block at a time; each server's step
// at its point.
func (f *Fleet) tickRack(ri int, t, dt float64) error {
	span := f.rackSpan[ri]
	var utilSum float64
	for i := span[0]; i < span[1]; i++ {
		sh := f.hosts[i]
		kept := 0
		for j, d := range sh.driven {
			sh.invalidate() // the driver rewrites a task CPU fraction
			if err := d.vm.SetTaskCPU(d.task, d.prof.At(t)); err != nil {
				sh.driven = append(sh.driven[:kept], sh.driven[j:]...)
				return err
			}
			if _, ok := d.prof.(workload.Constant); ok {
				continue
			}
			sh.driven[kept] = d
			kept++
		}
		clear(sh.driven[kept:])
		sh.driven = sh.driven[:kept]
		u, _ := sh.loads()
		utilSum += u
	}
	base := f.rackBase(utilSum / float64(span[1]-span[0]))
	inlets := f.rackInlets[ri][:0]
	for _, off := range f.offsets {
		inlets = append(inlets, base+off)
	}
	f.rackInlets[ri] = inlets
	stale := &f.stale[ri]
	for i := span[0]; i < span[1]; i++ {
		srv := f.hosts[i].server
		srv.SetAmbient(inlets[i-span[0]])
		srv.SetLoad(f.hosts[i].loads())
		if u := srv.EffectiveUtil(); math.Float64bits(u) != math.Float64bits(f.tickUtil[i]) {
			f.tickUtil[i] = u
			stale.slot[stale.n], stale.util[stale.n] = i, u
			if stale.n++; stale.n == len(stale.slot) {
				f.refreshCurves(stale)
			}
		}
	}
	if stale.n > 0 {
		f.refreshCurves(stale)
	}
	for i := span[0]; i < span[1]; i++ {
		if err := f.hosts[i].server.AdvanceCurve(dt, f.tickCurve[i]); err != nil {
			return err
		}
	}
	return nil
}

// curveBlock gathers up to 16 of a rack's stale curve points for one
// thermal.UtilCurves call: their slots and new effective utilizations. It
// lives in the Fleet, one per rack, so a tick does not clear it.
type curveBlock struct {
	n     int
	slot  [16]int
	util  [16]float64
	curve [16]float64
}

// refreshCurves computes b's curve points into the memo and empties b.
func (f *Fleet) refreshCurves(b *curveBlock) {
	thermal.UtilCurves(b.curve[:b.n], b.util[:b.n])
	for j, i := range b.slot[:b.n] {
		f.tickCurve[i] = b.curve[j]
	}
	b.n = 0
}

// parallel reports whether the auxiliary sweeps (sensor sampling, anchor
// fingerprint scans) shard; see shard.MinHosts. The tick itself is always
// sharded (its per-rack work is orders of magnitude heavier).
func (f *Fleet) parallel() bool { return f.workers > 1 && len(f.hosts) >= shard.MinHosts }

// Sample reads every host's sensor once and emits the readings, exactly as
// a fleet of monitoring agents would. The sensor reads and load sweeps fill
// per-host scratch first — rack-sharded at scale (each host's sensor owns
// its rng and noise batch, so reads are independent); emission stays serial
// and in slot order, so the reading stream — and therefore ingest
// accounting, tee captures and recorded traces — is byte-identical to the
// serial sweep. A read takes the sensor's next noise value, drawn ahead in
// a batch; the batches are staggered by slot, so a sweep refills only a
// small share of the fleet's (thermal.NewSensor).
func (f *Fleet) Sample(emit func(telemetry.Reading) bool) {
	if f.dark {
		// Fleet-wide telemetry blackout: the hosts run on and keep heating,
		// but the whole sweep — reads, rng draws, emission — goes dark.
		return
	}
	if f.parallel() {
		// Sensor and load sweeps cannot fail, so the shard error path is
		// unreachable here.
		_ = f.shardRacks(func(lo, hi int) error { f.readSensors(lo, hi); return nil })
	} else {
		f.readSensors(0, len(f.rackSpan))
	}
	t := f.now
	for i := range f.hosts {
		v, fault := f.sampleVal[i], f.hosts[i].fault
		// Injected sensor faults corrupt the *emitted* value only: the read
		// (and its noise value) already happened on the healthy schedule, so
		// clearing a fault restores the exact healthy reading stream.
		switch fault.Mode {
		case SensorDropped:
			continue
		case SensorStuck:
			v = fault.ValueC
		case SensorNaN:
			v = math.NaN()
		case SensorBiased:
			v += fault.ValueC
		}
		emit(telemetry.Reading{
			HostID:  f.order[i],
			AtS:     t,
			TempC:   v,
			Util:    f.sampleUtil[i],
			MemFrac: f.sampleMem[i],
		})
	}
}

// readSensors reads racks [lo, hi)'s sensors and loads into the sample
// scratch.
func (f *Fleet) readSensors(lo, hi int) {
	for i := f.rackSpan[lo][0]; i < f.rackSpan[hi-1][1]; i++ {
		sh := f.hosts[i]
		f.sampleVal[i] = sh.sensor.Read()
		f.sampleUtil[i], f.sampleMem[i] = sh.loads()
	}
}

// event is one tick or sensor sweep of an Advance, at its clock time.
type event struct {
	at     float64
	sample bool
}

// advanceSlackS is how far past its horizon an Advance still schedules an
// event: a period multiple that rounding lands a hair beyond the horizon
// (7 × 0.1 s is 0.7000000000000001 s) is carried to the next call instead of
// being lost.
const advanceSlackS = 1e-9

// Advance runs the simulation forward by dur seconds: a tick every TickS
// and a sensor sweep every SampleS, both counted from the clock at the
// call. The two sequences fire merged in time order, a tick before a sample
// at the same instant, so a coincident sample observes the post-tick
// temperature. Nothing fires at the call's own start, so consecutive calls
// never tick twice at their boundary; a fresh fleet's reading at its start
// is Sample's. An event landing within advanceSlackS past the horizon is
// carried: it fires at its own time at the start of the next call, before
// that call's events, emitting to that call's emit. The clock ends at
// start+dur; after a tick error it stays at the failed tick.
func (f *Fleet) Advance(dur float64, emit func(telemetry.Reading) bool) error {
	start := f.now
	horizon := start + dur
	if !(horizon > start) || math.IsInf(horizon, 1) {
		return fmt.Errorf("fleet: advance duration %v s from %v s does not reach a finite later time", dur, start)
	}
	tickS, sampleS := f.cfg.TickS, f.cfg.SampleS
	c, tk, sk := 0, 1, 1 // next carried event, next tick and sample multiples
	for {
		next := event{at: start + float64(tk)*tickS}
		if at := start + float64(sk)*sampleS; at < next.at {
			next = event{at: at, sample: true}
		}
		carried := c < len(f.carry) && f.carry[c].at <= next.at
		if carried {
			next = f.carry[c]
		}
		if next.at > horizon {
			break
		}
		switch {
		case carried:
			c++
		case next.sample:
			sk++
		default:
			tk++
		}
		f.now = next.at
		if next.sample {
			f.Sample(emit)
		} else if err := f.tick(); err != nil {
			return fmt.Errorf("fleet: tick: %w", err)
		}
	}
	f.carry = f.carry[:copy(f.carry, f.carry[c:])]
	for ; start+float64(tk)*tickS <= horizon+advanceSlackS; tk++ {
		f.carry = append(f.carry, event{at: start + float64(tk)*tickS})
	}
	for ; start+float64(sk)*sampleS <= horizon+advanceSlackS; sk++ {
		f.carry = append(f.carry, event{at: start + float64(sk)*sampleS, sample: true})
	}
	// By time; on a tie, events carried earlier first, then ticks, then
	// samples — the order they were appended in.
	slices.SortStableFunc(f.carry, func(a, b event) int { return cmp.Compare(a.at, b.at) })
	f.now = horizon
	return nil
}

// Deployment is slot i's deployment view — every placed VM by id, its
// tasks by id at their current CPU fractions, no profiles — as of its
// current Generation. The slice is the host's own scratch: read it before
// the next mutation or tick and never write through it. Calls for distinct
// slots may run concurrently.
func (f *Fleet) Deployment(i int) []workload.VMSpec { return f.hosts[i].deployment() }

// Generation is slot i's deployment generation: it advances at every
// change that can change the slot's Deployment — Place, Migrate, Remove,
// and a tick that drives one of its tasks — and is never 0, so a memo of
// anything derived from the deployment stays valid while its recorded
// generation is current, and a zero record is never current.
func (f *Fleet) Generation(i int) uint64 { return f.hosts[i].gen }

// HostStateCase is the reference Deployment reproduces from its memoised
// view, rebuilt on every call: h's current deployment — every placed VM by
// id, its tasks by id at their current CPU fractions, no profiles — at
// ambientC, plus an optional candidate.
func HostStateCase(h *vmm.Host, fanCount int, ambientC float64, candidate *workload.VMSpec) (workload.Case, error) {
	if h == nil {
		return workload.Case{}, errors.New("fleet: nil host")
	}
	c := workload.Case{Name: "state:" + h.ID(), Host: h.Config(), FanCount: fanCount, AmbientC: ambientC}
	for _, vm := range h.VMs() {
		spec := workload.VMSpec{ID: vm.ID(), Config: vm.Config()}
		for _, task := range vm.Tasks() {
			spec.Tasks = append(spec.Tasks, workload.TaskSpec{Task: task})
		}
		c.VMs = append(c.VMs, spec)
	}
	if candidate != nil {
		c.VMs = append(c.VMs, *candidate)
	}
	if len(c.VMs) == 0 {
		return workload.Case{}, errors.New("fleet: host state has no running VMs")
	}
	return c, nil
}

// rackBase is the inlet of a zero-offset slot in a rack at mean
// utilization meanUtil; slot s adds offsets[s] to it.
func (f *Fleet) rackBase(meanUtil float64) float64 {
	return f.cool.SupplyC + f.cool.RecircPerUtil*meanUtil
}

// Inlet returns slot i's inlet temperature. After a tick it is the tick's
// value, cached per rack: loads change only at a tick or a deployment
// change, and an in-round placement is priced at the last tick's inlets.
// Before the first tick it is the tick's formula over the current loads.
func (f *Fleet) Inlet(i int) float64 {
	ri, s := i/f.cfg.HostsPerRack, i%f.cfg.HostsPerRack
	if inlets := f.rackInlets[ri]; s < len(inlets) {
		return inlets[s]
	}
	span := f.rackSpan[ri]
	var utilSum float64
	for k := span[0]; k < span[1]; k++ {
		u, _ := f.hosts[k].loads()
		utilSum += u
	}
	return f.rackBase(utilSum/float64(span[1]-span[0])) + f.offsets[s]
}

// ScanAnchors returns every slot's inlet temperature and the deployment
// fingerprint of every occupied host under q, rack-sharded at scale (pure
// computation over rack-local state; every worker writes disjoint slots).
// Both slices are the fleet's scratch, valid until the next scan; an idle
// host's key is left as it was.
func (f *Fleet) ScanAnchors(q anchorcache.Quantizer) (inlets []float64, keys []anchorcache.Key) {
	if f.parallel() {
		// The scan cannot fail, so the shard error path is unreachable.
		_ = f.shardRacks(func(lo, hi int) error { f.scanRacks(lo, hi, q); return nil })
	} else {
		f.scanRacks(0, len(f.rackSpan), q)
	}
	return f.scanInlets, f.scanKeys
}

// scanRacks is racks [lo, hi)'s share of ScanAnchors.
func (f *Fleet) scanRacks(lo, hi int, q anchorcache.Quantizer) {
	for i := f.rackSpan[lo][0]; i < f.rackSpan[hi-1][1]; i++ {
		inlet := f.Inlet(i)
		f.scanInlets[i] = inlet
		if f.hosts[i].host.NumVMs() > 0 {
			f.scanKeys[i] = anchorKey(f.hosts[i], q, inlet)
		}
	}
}

// anchorKey derives a host's deployment fingerprint: the cache key that
// changes exactly when something the feature encoder can see changes.
func anchorKey(sh *simHost, q anchorcache.Quantizer, inlet float64) anchorcache.Key {
	ambBucket, _ := q.Ambient(inlet)
	util, mem := sh.loads()
	h := sh.host
	bu, bm := q.UtilMemBuckets(util, mem)
	hash := anchorcache.NewHash()
	for vi := 0; vi < h.NumVMs(); vi++ {
		vm := h.VMAt(vi)
		// The fingerprint must cover everything the feature encoder can
		// see in the deployment snapshot: identity, plus the per-VM load
		// *distribution* (raw task-fraction sum and max, quantized) —
		// dynamic profiles can redistribute load between tasks without
		// moving total host utilization, and features like task_cpu_max
		// follow the distribution. The 2 is the running state's code,
		// which keys folded while VMs had a lifecycle: keeping it lets a
		// checkpoint cut before then restore with a warm anchor cache.
		cpuSum, cpuMax := vm.TaskCPUStats()
		hash = hash.String(vm.ID()).Uint64(2).
			Uint64(q.UtilBucket(cpuSum)).Uint64(q.UtilBucket(cpuMax))
	}
	return hash.Uint64(ambBucket).Uint64(bu).Uint64(bm).Key()
}
