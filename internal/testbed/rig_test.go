package testbed

import (
	"math"
	"strings"
	"testing"

	"vmtherm/internal/sim"
	"vmtherm/internal/thermal"
	"vmtherm/internal/vmm"
	"vmtherm/internal/workload"
)

// smallCase builds a deterministic 3-VM case for fast tests.
func smallCase(t *testing.T) workload.Case {
	t.Helper()
	opts := workload.DefaultGenOptions()
	opts.VMCountMin, opts.VMCountMax = 3, 3
	c, err := workload.GenerateCase(opts, 11, "rigtest")
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestRunConfigValidate(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*RunConfig)
		field  string // named by the error; "" when valid
	}{
		{"default", func(*RunConfig) {}, ""},
		{"zero duration", func(c *RunConfig) { c.DurationS = 0 }, "duration"},
		{"NaN duration", func(c *RunConfig) { c.DurationS = math.NaN() }, "duration"},
		{"+Inf duration", func(c *RunConfig) { c.DurationS = math.Inf(1) }, "duration"},
		{"zero tick", func(c *RunConfig) { c.TickS = 0 }, "tick"},
		{"NaN tick", func(c *RunConfig) { c.TickS = math.NaN() }, "tick"},
		{"-Inf tick", func(c *RunConfig) { c.TickS = math.Inf(-1) }, "tick"},
		{"tick beyond duration", func(c *RunConfig) { c.TickS = c.DurationS + 1 }, "tick"},
		{"zero sample", func(c *RunConfig) { c.SampleS = 0 }, "sample"},
		{"NaN sample", func(c *RunConfig) { c.SampleS = math.NaN() }, "sample"},
		{"+Inf sample", func(c *RunConfig) { c.SampleS = math.Inf(1) }, "sample"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			c := DefaultRunConfig()
			tt.mutate(&c)
			err := c.Validate()
			if (err == nil) != (tt.field == "") || err != nil && !strings.Contains(err.Error(), tt.field) {
				t.Errorf("Validate = %v, want the %q field refused", err, tt.field)
			}
		})
	}
}

func TestNewRejectsEmptyCase(t *testing.T) {
	if _, err := New(workload.Case{}, Options{}); err == nil {
		t.Error("empty case should fail")
	}
}

func TestRunProducesWarmingTrace(t *testing.T) {
	rig, err := New(smallCase(t), Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := rig.Run(RunConfig{DurationS: 1200, TickS: 1, SampleS: 5})
	if err != nil {
		t.Fatal(err)
	}
	first, err := res.TrueTemps.First()
	if err != nil {
		t.Fatal(err)
	}
	last, err := res.TrueTemps.Last()
	if err != nil {
		t.Fatal(err)
	}
	if last.V <= first.V {
		t.Errorf("loaded server did not warm: %v -> %v", first.V, last.V)
	}
	// Ambient must match the case.
	if rig.Server().Ambient() != rig.Case().AmbientC {
		t.Error("ambient not applied from case")
	}
	// Utilization trace should be positive and ≤ 1.
	for _, p := range res.Utilization.Points() {
		if p.V < 0 || p.V > 1 {
			t.Fatalf("utilization out of range: %v", p.V)
		}
	}
}

func TestStableTempMatchesEquationOne(t *testing.T) {
	rig, err := New(smallCase(t), Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := rig.Run(DefaultRunConfig())
	if err != nil {
		t.Fatal(err)
	}
	stable, err := res.StableTemp(600)
	if err != nil {
		t.Fatal(err)
	}
	// Against the noise-free trace's late mean.
	trueStable, err := res.TrueTemps.MeanAfter(600)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(stable-trueStable) > 1 {
		t.Errorf("sensor stable %v vs true %v", stable, trueStable)
	}
	// And the final reading should be near the stable value (settled).
	last, _ := res.TrueTemps.Last()
	if math.Abs(last.V-trueStable) > 1 {
		t.Errorf("trace not settled: last %v vs stable %v", last.V, trueStable)
	}
}

func TestRunDeterministicAcrossRigs(t *testing.T) {
	c := smallCase(t)
	r1, err := New(c, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := New(c, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	res1, err := r1.Run(RunConfig{DurationS: 600, TickS: 1, SampleS: 5})
	if err != nil {
		t.Fatal(err)
	}
	res2, err := r2.Run(RunConfig{DurationS: 600, TickS: 1, SampleS: 5})
	if err != nil {
		t.Fatal(err)
	}
	a := res1.SensorTemps.Values()
	b := res2.SensorTemps.Values()
	if len(a) != len(b) {
		t.Fatal("trace lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
	// Different seed → different sensor noise.
	r3, err := New(c, Options{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	res3, err := r3.Run(RunConfig{DurationS: 600, TickS: 1, SampleS: 5})
	if err != nil {
		t.Fatal(err)
	}
	cvals := res3.SensorTemps.Values()
	same := true
	for i := range a {
		if i < len(cvals) && a[i] != cvals[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical sensor traces")
	}
}

func TestSequentialRunsContinueClock(t *testing.T) {
	rig, err := New(smallCase(t), Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rig.Run(RunConfig{DurationS: 300, TickS: 1, SampleS: 10}); err != nil {
		t.Fatal(err)
	}
	warm := rig.Server().DieTemp()
	res2, err := rig.Run(RunConfig{DurationS: 300, TickS: 1, SampleS: 10})
	if err != nil {
		t.Fatal(err)
	}
	if rig.Engine().Now() != 600 {
		t.Errorf("engine clock = %v, want 600", rig.Engine().Now())
	}
	// Second run starts from the warm state, not ambient.
	first, _ := res2.TrueTemps.First()
	if math.Abs(first.V-warm) > 2 {
		t.Errorf("second run restarted cold: %v vs warm %v", first.V, warm)
	}
}

func TestMoreVMsRunHotter(t *testing.T) {
	opts := workload.DefaultGenOptions()
	opts.FanChoices = []int{4}
	opts.AmbientMinC, opts.AmbientMaxC = 22, 22

	stableFor := func(nVMs int) float64 {
		opts.VMCountMin, opts.VMCountMax = nVMs, nVMs
		c, err := workload.GenerateCase(opts, 21, "load")
		if err != nil {
			t.Fatal(err)
		}
		rig, err := New(c, Options{Seed: 4})
		if err != nil {
			t.Fatal(err)
		}
		res, err := rig.Run(DefaultRunConfig())
		if err != nil {
			t.Fatal(err)
		}
		st, err := res.StableTemp(600)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	few := stableFor(2)
	many := stableFor(12)
	if many <= few {
		t.Errorf("12 VMs (%v °C) should run hotter than 2 VMs (%v °C)", many, few)
	}
}

func TestFanFailureDuringRunRaisesTemp(t *testing.T) {
	c := smallCase(t)
	run := func(failFans bool) float64 {
		rig, err := New(c, Options{Seed: 8})
		if err != nil {
			t.Fatal(err)
		}
		if failFans {
			err := rig.Engine().Schedule(300, "fail-fans", func(*sim.Engine) {
				for i := 0; i < rig.Server().Fans().Count()-1; i++ {
					if err := rig.Server().Fans().Fail(i); err != nil {
						t.Error(err)
					}
				}
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		res, err := rig.Run(DefaultRunConfig())
		if err != nil {
			t.Fatal(err)
		}
		st, err := res.StableTemp(900)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	healthy := run(false)
	failed := run(true)
	if failed <= healthy+2 {
		t.Errorf("fan failure should raise stable temp: healthy %v vs failed %v", healthy, failed)
	}
}

func TestVMLookup(t *testing.T) {
	c := smallCase(t)
	rig, err := New(c, Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rig.VM("nope"); err == nil {
		t.Error("unknown vm should fail")
	}
	vm, err := rig.VM(c.VMs[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	if vm.State() != vmm.VMRunning {
		t.Errorf("case vm state = %v, want running", vm.State())
	}
}

func TestTrackExternalVM(t *testing.T) {
	rig, err := New(smallCase(t), Options{Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	ext, err := vmm.NewVM("external", vmm.VMConfig{VCPUs: 2, MemoryGB: 4})
	if err != nil {
		t.Fatal(err)
	}
	task := vmm.Task{ID: "x", Class: vmm.CPUBound, CPUFraction: 0.5, MemGB: 1}
	if err := ext.AddTask(task); err != nil {
		t.Fatal(err)
	}
	spec := []workload.TaskSpec{{Task: task, Profile: workload.Constant{Level: 0.9}}}
	if err := rig.Track(nil, spec); err == nil {
		t.Error("nil vm should fail")
	}
	if err := rig.Track(ext, spec); err != nil {
		t.Fatal(err)
	}
	if err := rig.Track(ext, spec); err == nil {
		t.Error("double track should fail")
	}
	// Place + start it on the rig host; the tick should drive its profile.
	if err := rig.Host().Place(ext); err != nil {
		t.Fatal(err)
	}
	if err := ext.Start(rig.Engine().Now()); err != nil {
		t.Fatal(err)
	}
	if _, err := rig.Run(RunConfig{DurationS: 60, TickS: 1, SampleS: 10}); err != nil {
		t.Fatal(err)
	}
	// Profile (0.9) must have overridden the initial fraction (0.5).
	got := ext.Tasks()[0].CPUFraction
	if got != 0.9 {
		t.Errorf("tracked vm task fraction = %v, want 0.9", got)
	}
}

// TestConstantProfilesRetireOnceApplied: a constant profile stays driven
// while its VM is pending and leaves the tick's list on the first tick that
// applies it; a time-varying one stays.
func TestConstantProfilesRetireOnceApplied(t *testing.T) {
	rig, err := New(smallCase(t), Options{Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	ext, err := vmm.NewVM("external", vmm.VMConfig{VCPUs: 2, MemoryGB: 4})
	if err != nil {
		t.Fatal(err)
	}
	specs := []workload.TaskSpec{
		{Task: vmm.Task{ID: "x", Class: vmm.CPUBound, CPUFraction: 0.5, MemGB: 1}, Profile: workload.Constant{Level: 0.9}},
		{Task: vmm.Task{ID: "y", Class: vmm.CPUBound, CPUFraction: 0.5, MemGB: 1}, Profile: workload.Sine{Base: 0.5, Amplitude: 0.2, Period: 30}},
	}
	for _, ts := range specs {
		if err := ext.AddTask(ts.Task); err != nil {
			t.Fatal(err)
		}
	}
	if err := rig.Track(ext, specs); err != nil {
		t.Fatal(err)
	}
	if err := rig.Host().Place(ext); err != nil {
		t.Fatal(err)
	}
	if _, err := rig.Run(RunConfig{DurationS: 10, TickS: 1, SampleS: 5}); err != nil {
		t.Fatal(err)
	}
	// The case's own constants ran and retired; the pending VM's did not.
	if len(rig.driven) != 2 || rig.driven[0].vm != ext || ext.TaskAt(0).CPUFraction != 0.5 {
		t.Fatalf("after a pending run: %d driven, x at %v; want ext's 2 and 0.5", len(rig.driven), ext.TaskAt(0).CPUFraction)
	}
	if err := ext.Start(rig.Engine().Now()); err != nil {
		t.Fatal(err)
	}
	if _, err := rig.Run(RunConfig{DurationS: 10, TickS: 1, SampleS: 5}); err != nil {
		t.Fatal(err)
	}
	if len(rig.driven) != 1 || rig.driven[0].task != 1 || ext.TaskAt(0).CPUFraction != 0.9 {
		t.Errorf("after it ran: %d driven, x at %v; want the sine alone and 0.9", len(rig.driven), ext.TaskAt(0).CPUFraction)
	}
}

func TestThermalOptionsOverride(t *testing.T) {
	c := smallCase(t)
	sp := thermal.DefaultServerParams()
	sp.Power.MaxW = 300 // hotter silicon
	rigHot, err := New(c, Options{Server: sp, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	rigStd, err := New(c, Options{Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	resHot, err := rigHot.Run(DefaultRunConfig())
	if err != nil {
		t.Fatal(err)
	}
	resStd, err := rigStd.Run(DefaultRunConfig())
	if err != nil {
		t.Fatal(err)
	}
	hot, _ := resHot.StableTemp(600)
	std, _ := resStd.StableTemp(600)
	if hot <= std {
		t.Errorf("override had no effect: hot %v vs std %v", hot, std)
	}
}

func TestFlakySensorStillProducesStableTemp(t *testing.T) {
	// Transient sensor failures drop samples (like a real collector) but
	// must not corrupt the experiment or Eq. (1).
	c := smallCase(t)
	sp := thermal.DefaultSensorParams()
	sp.FailProb = 0.3
	rig, err := New(c, Options{Sensor: sp, Seed: 60})
	if err != nil {
		t.Fatal(err)
	}
	res, err := rig.Run(DefaultRunConfig())
	if err != nil {
		t.Fatal(err)
	}
	// ~30% of sensor samples dropped; true trace complete.
	if res.SensorTemps.Len() >= res.TrueTemps.Len() {
		t.Error("failures should drop sensor samples")
	}
	if res.SensorTemps.Len() < res.TrueTemps.Len()/2 {
		t.Error("too many samples dropped for 30% failure rate")
	}
	stable, err := res.StableTemp(600)
	if err != nil {
		t.Fatal(err)
	}
	trueStable, err := res.TrueTemps.MeanAfter(600)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(stable-trueStable) > 1 {
		t.Errorf("flaky-sensor stable %v far from true %v", stable, trueStable)
	}
}
