// Package testbed assembles the simulated equivalent of the paper's physical
// experiment rig: one observed server (vmm.Host for capacity accounting +
// thermal.Server for heat) driven by a workload.Case on the discrete-event
// engine, observed through a noisy sensor, and producing the temperature
// traces every experiment consumes.
package testbed

import (
	"errors"
	"fmt"
	"math"

	"vmtherm/internal/mathx"
	"vmtherm/internal/sim"
	"vmtherm/internal/thermal"
	"vmtherm/internal/timeseries"
	"vmtherm/internal/vmm"
	"vmtherm/internal/workload"
)

// RunConfig controls one experiment run.
type RunConfig struct {
	// DurationS is the experiment length t_exp (paper runs 1800 s).
	DurationS float64
	// TickS is how often task load profiles and thermals advance.
	TickS float64
	// SampleS is the sensor sampling interval.
	SampleS float64
}

// DefaultRunConfig mirrors the paper's experiment shape.
func DefaultRunConfig() RunConfig {
	return RunConfig{DurationS: 1800, TickS: 1, SampleS: 5}
}

// Validate checks run parameters: a finite positive duration, and tick and
// sample intervals in (0, duration] — NaN and ±Inf fail every test.
func (c RunConfig) Validate() error {
	if !(c.DurationS > 0) || math.IsInf(c.DurationS, 1) {
		return fmt.Errorf("testbed: duration must be finite and > 0, got %v", c.DurationS)
	}
	if !(c.TickS > 0 && c.TickS <= c.DurationS) {
		return fmt.Errorf("testbed: tick %v invalid for duration %v", c.TickS, c.DurationS)
	}
	if !(c.SampleS > 0 && c.SampleS <= c.DurationS) {
		return fmt.Errorf("testbed: sample interval %v invalid for duration %v", c.SampleS, c.DurationS)
	}
	return nil
}

// Result holds the traces of one run.
type Result struct {
	// SensorTemps is the noisy, quantized CPU temperature as the predictors
	// see it.
	SensorTemps *timeseries.Series
	// TrueTemps is the noise-free die temperature (for evaluation only).
	TrueTemps *timeseries.Series
	// Utilization is host CPU utilization over time.
	Utilization *timeseries.Series
	// MemActive is host memory activity over time.
	MemActive *timeseries.Series
}

// StableTemp implements the paper's Eq. (1): the mean observed temperature
// after tBreak seconds.
func (r *Result) StableTemp(tBreakS float64) (float64, error) {
	return r.SensorTemps.MeanAfter(tBreakS)
}

// Rig is one assembled experiment: an observed host and its thermal model,
// the VMs of a workload case, and the profiles that drive their tasks.
type Rig struct {
	cse    workload.Case
	engine *sim.Engine
	host   *vmm.Host
	server *thermal.Server
	sensor *thermal.Sensor
	vms    map[string]*vmm.VM
	driven []drivenTask // every live profiled task, in registration order
	// asyncErr captures the first failure raised inside a scheduled
	// scenario event; Run surfaces it.
	asyncErr error
}

// drivenTask binds one task of a tracked VM, by its deployment-order index
// (vmm.VM.TaskIndex, resolved at registration), to the profile that drives it.
// A workload.Constant is retired once the tick has applied it — on the first
// tick its VM runs or migrates — since it would only set the same level again.
type drivenTask struct {
	vm   *vmm.VM
	task int
	prof workload.Profile
}

// Options configures rig construction beyond the workload case.
type Options struct {
	// Server overrides the thermal parameters (FanCount/AmbientC are always
	// taken from the case). Zero value selects defaults.
	Server thermal.ServerParams
	// Sensor overrides the sensor error model. Zero value selects defaults.
	Sensor thermal.SensorParams
	// Seed drives all stochastic components of the rig.
	Seed int64
}

// New builds a rig from a case: host and VMs are created, placed, and
// started at t=0; the thermal server takes the case's fan count and ambient.
func New(c workload.Case, opts Options) (*Rig, error) {
	if len(c.VMs) == 0 {
		return nil, errors.New("testbed: case has no VMs")
	}
	sp := opts.Server
	if sp == (thermal.ServerParams{}) {
		sp = thermal.DefaultServerParams()
	}
	sp.FanCount = c.FanCount
	sp.AmbientC = c.AmbientC
	srv, err := thermal.NewServer(sp)
	if err != nil {
		return nil, fmt.Errorf("testbed: thermal server: %w", err)
	}
	snp := opts.Sensor
	if snp == (thermal.SensorParams{}) {
		snp = thermal.DefaultSensorParams()
	}
	sensor, err := thermal.NewSensor(snp, srv.DieTemp, mathx.SplitStable(opts.Seed, "sensor:"+c.Name))
	if err != nil {
		return nil, fmt.Errorf("testbed: sensor: %w", err)
	}
	host, err := vmm.NewHost("host:"+c.Name, c.Host)
	if err != nil {
		return nil, fmt.Errorf("testbed: host: %w", err)
	}

	r := &Rig{
		cse:    c,
		engine: sim.NewEngine(),
		host:   host,
		server: srv,
		sensor: sensor,
		vms:    make(map[string]*vmm.VM, len(c.VMs)),
	}
	for _, spec := range c.VMs {
		vm, err := vmm.NewVM(spec.ID, spec.Config)
		if err != nil {
			return nil, err
		}
		for _, ts := range spec.Tasks {
			if err := vm.AddTask(ts.Task); err != nil {
				return nil, err
			}
		}
		if err := host.Place(vm); err != nil {
			return nil, fmt.Errorf("testbed: placing %s: %w", spec.ID, err)
		}
		if err := vm.Start(0); err != nil {
			return nil, err
		}
		r.vms[spec.ID] = vm
		if err := r.registerProfiles(vm, spec.Tasks); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// registerProfiles appends vm's profiled tasks to the tick's driven list,
// each by its index in vm. A task vm does not hold is an error here rather
// than at the first tick.
func (r *Rig) registerProfiles(vm *vmm.VM, tasks []workload.TaskSpec) error {
	n := len(r.driven)
	for _, ts := range tasks {
		if ts.Profile == nil {
			continue
		}
		i, err := vm.TaskIndex(ts.Task.ID)
		if err != nil {
			r.driven = r.driven[:n]
			return fmt.Errorf("testbed: %w", err)
		}
		r.driven = append(r.driven, drivenTask{vm: vm, task: i, prof: ts.Profile})
	}
	return nil
}

// Case returns the workload case this rig was built from.
func (r *Rig) Case() workload.Case { return r.cse }

// Engine exposes the simulation engine so scenarios can inject events
// (migrations, fan failures, ambient changes) before or between runs.
func (r *Rig) Engine() *sim.Engine { return r.engine }

// Host exposes the observed host.
func (r *Rig) Host() *vmm.Host { return r.host }

// Server exposes the thermal model (e.g. for fan failure injection).
func (r *Rig) Server() *thermal.Server { return r.server }

// VM returns a case VM by id.
func (r *Rig) VM(id string) (*vmm.VM, error) {
	vm, ok := r.vms[id]
	if !ok {
		return nil, fmt.Errorf("testbed: no vm %q", id)
	}
	return vm, nil
}

// Track registers an externally created VM (e.g. one migrating in from
// another host) so its task profiles are driven by this rig's clock.
func (r *Rig) Track(vm *vmm.VM, tasks []workload.TaskSpec) error {
	if vm == nil {
		return errors.New("testbed: nil vm")
	}
	if _, ok := r.vms[vm.ID()]; ok {
		return fmt.Errorf("testbed: vm %q already tracked", vm.ID())
	}
	if err := r.registerProfiles(vm, tasks); err != nil {
		return err
	}
	r.vms[vm.ID()] = vm
	return nil
}

// Run executes the experiment for cfg.DurationS seconds of virtual time and
// returns the recorded traces. Run may be called repeatedly; time continues
// from where the previous run ended.
func (r *Rig) Run(cfg RunConfig) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	// One sample at the start and one per SampleS after it; the bound only
	// keeps an absurd ratio from reserving memory up front.
	n := int(1 + math.Min(cfg.DurationS/cfg.SampleS, 1<<16))
	res := &Result{
		SensorTemps: timeseries.NewSized(n),
		TrueTemps:   timeseries.NewSized(n),
		Utilization: timeseries.NewSized(n),
		MemActive:   timeseries.NewSized(n),
	}
	start := r.engine.Now()

	var tickErr error
	stopTick, err := r.engine.Every(cfg.TickS, "tick", func(e *sim.Engine) {
		if err := r.tick(e, cfg.TickS); err != nil && tickErr == nil {
			tickErr = err
			e.Stop()
		}
	})
	if err != nil {
		return nil, err
	}
	defer stopTick()

	stopSample, err := r.engine.Every(cfg.SampleS, "sample", func(e *sim.Engine) {
		t := e.Now() - start
		// A transient read failure just drops the sample, as in a real
		// collector; the noise-free trace always records.
		if v, err := r.sensor.Read(); err == nil {
			res.SensorTemps.MustAppend(t, v)
		}
		res.TrueTemps.MustAppend(t, r.server.DieTemp())
		util, mem := r.host.Loads()
		res.Utilization.MustAppend(t, util)
		res.MemActive.MustAppend(t, mem)
	})
	if err != nil {
		return nil, err
	}
	defer stopSample()

	if _, err := r.engine.RunUntil(start + cfg.DurationS); err != nil {
		return nil, err
	}
	if tickErr != nil {
		return nil, fmt.Errorf("testbed: tick: %w", tickErr)
	}
	if r.asyncErr != nil {
		err := r.asyncErr
		r.asyncErr = nil
		return nil, err
	}
	if res.SensorTemps.Len() == 0 {
		return nil, errors.New("testbed: run recorded no samples")
	}
	return res, nil
}

// tick applies load profiles and advances thermals by dt. A constant
// profile it applied leaves driven (see drivenTask).
func (r *Rig) tick(e *sim.Engine, dt float64) error {
	t := e.Now()
	kept := 0
	for j, d := range r.driven {
		if st := d.vm.State(); st == vmm.VMRunning || st == vmm.VMMigrating {
			if err := d.vm.SetTaskCPU(d.task, d.prof.At(t)); err != nil {
				r.driven = append(r.driven[:kept], r.driven[j:]...)
				return err
			}
			if _, ok := d.prof.(workload.Constant); ok {
				continue
			}
		}
		r.driven[kept] = d
		kept++
	}
	clear(r.driven[kept:])
	r.driven = r.driven[:kept]
	r.server.SetLoad(r.host.Loads())
	return r.server.Advance(dt)
}
