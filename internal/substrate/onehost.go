package substrate

import (
	"errors"
	"fmt"

	"vmtherm/internal/telemetry"
	"vmtherm/internal/timeseries"
	"vmtherm/internal/workload"
)

// A single-server experiment — the paper's Eq. (1) protocol, which every
// ψ_stable training record and every dynamic case study comes from — is a
// one-host fleet: the same hosts, profiles, thermals and sensor the fleet's
// rounds run on, configured from a workload.Case.

// OneHost builds the fleet a single-server experiment runs on: one host of
// c's shape and fan count, its inlet held at c.AmbientC (a constant CRAC
// supply with no recirculation and no rack spread), c's VMs placed at the
// clock's zero. The host is "host:"+c.Name and its sensor
// draws from the stream "sensor:"+c.Name, so a case's readings depend on
// cfg.Seed and c.Name alone. cfg supplies the server and sensor templates,
// the tick, the sample interval and the seed; the case supplies the rest.
// The ambient may be any finite temperature, also one outside the supply
// range Config.Validate holds a fleet's CRAC to.
func OneHost(c workload.Case, cfg Config) (*Fleet, error) {
	if len(c.VMs) == 0 {
		return nil, errors.New("fleet: case has no VMs")
	}
	cfg.Racks, cfg.HostsPerRack, cfg.RackSpreadC = 1, 1, 0
	cfg.CRAC = CRAC{SupplyC: c.AmbientC}
	if err := cfg.validatePhysics(); err != nil {
		return nil, err
	}
	f, err := newFleet(cfg, c.Host, c.FanCount, 1, func(int, int) (string, string) {
		return "host:" + c.Name, "sensor:" + c.Name
	})
	if err != nil {
		return nil, err
	}
	n := 0 // an upper bound on the drivers: one allocation for them all
	for _, vm := range c.VMs {
		n += len(vm.Tasks)
	}
	f.hosts[0].driven = make([]drivenTask, 0, n)
	for _, vm := range c.VMs {
		if err := f.Place(0, vm); err != nil {
			return nil, fmt.Errorf("fleet: placing %s: %w", vm.ID, err)
		}
	}
	return f, nil
}

// Trace is the four series of a single-server experiment, one point per
// reading its one-host fleet emits: the noisy sensor as the predictors see
// it, and at the same instant the noise-free die temperature (for
// evaluation only), utilization and memory activity. A lost read adds no
// point to any series.
type Trace struct {
	f           *Fleet
	SensorTemps *timeseries.Series
	TrueTemps   *timeseries.Series
	Utilization *timeseries.Series
	MemActive   *timeseries.Series
}

// NewTrace returns an empty trace of f's host (slot 0), sized for n
// readings.
func NewTrace(f *Fleet, n int) *Trace {
	return &Trace{
		f:           f,
		SensorTemps: timeseries.NewSized(n),
		TrueTemps:   timeseries.NewSized(n),
		Utilization: timeseries.NewSized(n),
		MemActive:   timeseries.NewSized(n),
	}
}

// Emit records one reading; it is the emit function Sample and Advance
// take.
func (tr *Trace) Emit(r telemetry.Reading) bool {
	die, _ := tr.f.Temps(0)
	tr.SensorTemps.MustAppend(r.AtS, r.TempC)
	tr.TrueTemps.MustAppend(r.AtS, die)
	tr.Utilization.MustAppend(r.AtS, r.Util)
	tr.MemActive.MustAppend(r.AtS, r.MemFrac)
	return true
}

// StableTemp implements the paper's Eq. (1): the mean observed temperature
// after tBreakS seconds.
func (tr *Trace) StableTemp(tBreakS float64) (float64, error) {
	return tr.SensorTemps.MeanAfter(tBreakS)
}

// RunCase runs c for durS seconds on a fresh one-host fleet (OneHost) and
// returns its trace: a reading at the start, then Advance(durS). A run
// shorter than one tick is refused: its host would never heat.
func RunCase(c workload.Case, cfg Config, durS float64) (*Trace, error) {
	if durS > 0 && cfg.TickS > durS {
		return nil, fmt.Errorf("fleet: tick %v s longer than the run duration %v s", cfg.TickS, durS)
	}
	f, err := OneHost(c, cfg)
	if err != nil {
		return nil, err
	}
	// One reading at the start and one per SampleS; the bound only keeps an
	// absurd ratio from reserving memory up front (Advance refuses a bad
	// duration).
	n := 1
	if r := durS / cfg.SampleS; r >= 1 {
		n += int(min(r, 1<<16))
	}
	tr := NewTrace(f, n)
	f.Sample(tr.Emit)
	if err := f.Advance(durS, tr.Emit); err != nil {
		return nil, err
	}
	return tr, nil
}
