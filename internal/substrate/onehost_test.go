package substrate

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"vmtherm/internal/telemetry"
	"vmtherm/internal/timeseries"
	"vmtherm/internal/vmm"
	"vmtherm/internal/workload"
)

// smallCase is a deterministic 3-VM constant-load case.
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

// seeded is the default configuration with the given seed.
func seeded(seed int64) Config {
	cfg := DefaultConfig()
	cfg.Seed = seed
	return cfg
}

// runCase is RunCase failing the test on an error.
func runCase(t *testing.T, c workload.Case, cfg Config, durS float64) *Trace {
	t.Helper()
	tr, err := RunCase(c, cfg, durS)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// hotVMSpec is a 4-vCPU VM whose two tasks run near full load.
func hotVMSpec(id string) workload.VMSpec {
	return workload.VMSpec{
		ID:     id,
		Config: vmm.VMConfig{VCPUs: 4, MemoryGB: 8},
		Tasks: []workload.TaskSpec{
			{
				Task:    vmm.Task{ID: id + "-t0", Class: vmm.CPUBound, CPUFraction: 0.95, MemGB: 2},
				Profile: workload.Constant{Level: 0.95},
			},
			{
				Task:    vmm.Task{ID: id + "-t1", Class: vmm.CPUBound, CPUFraction: 0.9, MemGB: 1},
				Profile: workload.Constant{Level: 0.9},
			},
		},
	}
}

// TestRunCaseValidate: a run length, tick or sample interval that is not
// finite and positive is refused, and the error names it.
func TestRunCaseValidate(t *testing.T) {
	c := smallCase(t)
	for _, tt := range []struct {
		name   string
		mutate func(*Config, *float64)
		field  string // named by the error; "" when valid
	}{
		{"default", func(*Config, *float64) {}, ""},
		{"zero duration", func(_ *Config, d *float64) { *d = 0 }, "duration"},
		{"NaN duration", func(_ *Config, d *float64) { *d = math.NaN() }, "duration"},
		{"+Inf duration", func(_ *Config, d *float64) { *d = math.Inf(1) }, "duration"},
		{"zero tick", func(c *Config, _ *float64) { c.TickS = 0 }, "tick"},
		{"NaN tick", func(c *Config, _ *float64) { c.TickS = math.NaN() }, "tick"},
		{"-Inf tick", func(c *Config, _ *float64) { c.TickS = math.Inf(-1) }, "tick"},
		{"tick beyond duration", func(c *Config, d *float64) { c.TickS = *d + 1 }, "tick"},
		{"zero sample", func(c *Config, _ *float64) { c.SampleS = 0 }, "sample"},
		{"NaN sample", func(c *Config, _ *float64) { c.SampleS = math.NaN() }, "sample"},
		{"+Inf sample", func(c *Config, _ *float64) { c.SampleS = math.Inf(1) }, "sample"},
	} {
		t.Run(tt.name, func(t *testing.T) {
			cfg, dur := seeded(1), 60.0
			tt.mutate(&cfg, &dur)
			_, err := RunCase(c, cfg, dur)
			if (err == nil) != (tt.field == "") || err != nil && !strings.Contains(err.Error(), tt.field) {
				t.Errorf("RunCase = %v, want the %q field refused", err, tt.field)
			}
		})
	}
}

func TestOneHostRejectsEmptyCase(t *testing.T) {
	if _, err := OneHost(workload.Case{}, DefaultConfig()); err == nil {
		t.Error("empty case should fail")
	}
}

// TestOneHostTakesAnyFiniteAmbient: a case's ambient is the inlet however
// far it lies outside a CRAC's plausible supply range, and a non-finite one
// is refused.
func TestOneHostTakesAnyFiniteAmbient(t *testing.T) {
	c := smallCase(t)
	for _, amb := range []float64{-10, 3, 40, 60} {
		c.AmbientC = amb
		tr := runCase(t, c, seeded(1), 30)
		if first, _ := tr.TrueTemps.First(); first.V != amb {
			t.Errorf("ambient %v: die starts at %v", amb, first.V)
		}
	}
	c.AmbientC = math.NaN()
	if _, err := OneHost(c, DefaultConfig()); err == nil {
		t.Error("NaN ambient accepted")
	}
}

// TestOneHostPlacesCaseVMs: every VM of the case runs on the host from
// the start, and only those.
func TestOneHostPlacesCaseVMs(t *testing.T) {
	c := smallCase(t)
	f, err := OneHost(c, seeded(9))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Host(0).VM("nope"); err == nil {
		t.Error("unknown vm found")
	}
	for _, spec := range c.VMs {
		vm, err := f.Host(0).VM(spec.ID)
		if err != nil {
			t.Fatal(err)
		}
		if slot, ok := f.Owner(spec.ID); !ok || slot != 0 || vm.ID() != spec.ID {
			t.Errorf("case vm %s: slot %d (%v), found %s", spec.ID, slot, ok, vm.ID())
		}
	}
	if f.Host(0).NumVMs() != len(c.VMs) || f.IDs()[0] != "host:"+c.Name {
		t.Errorf("host %s carries %d VMs, want host:%s with %d", f.IDs()[0], f.Host(0).NumVMs(), c.Name, len(c.VMs))
	}
}

func TestRunCaseProducesWarmingTrace(t *testing.T) {
	c := smallCase(t)
	tr := runCase(t, c, seeded(1), 1200)
	first, err := tr.TrueTemps.First()
	if err != nil {
		t.Fatal(err)
	}
	last, err := tr.TrueTemps.Last()
	if err != nil {
		t.Fatal(err)
	}
	// The first reading is taken at the start, before any tick.
	if first.T != 0 || first.V != c.AmbientC {
		t.Errorf("first reading at %v s reads a die at %v, want 0 s and the ambient %v", first.T, first.V, c.AmbientC)
	}
	if last.T != 1200 || last.V <= first.V {
		t.Errorf("loaded server did not warm: %v -> %v at %v s", first.V, last.V, last.T)
	}
	if n := tr.SensorTemps.Len(); n != 1+1200/5 {
		t.Errorf("%d readings, want one at the start and one per 5 s", n)
	}
	for _, p := range tr.Utilization.Points() {
		if p.V < 0 || p.V > 1 {
			t.Fatalf("utilization out of range: %v", p.V)
		}
	}
}

func TestTraceStableTempMatchesEquationOne(t *testing.T) {
	tr := runCase(t, smallCase(t), seeded(2), 1800)
	stable, err := tr.StableTemp(600)
	if err != nil {
		t.Fatal(err)
	}
	// Against the noise-free trace's late mean.
	trueStable, err := tr.TrueTemps.MeanAfter(600)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(stable-trueStable) > 1 {
		t.Errorf("sensor stable %v vs true %v", stable, trueStable)
	}
	// And the final reading should be near the stable value (settled).
	last, _ := tr.TrueTemps.Last()
	if math.Abs(last.V-trueStable) > 1 {
		t.Errorf("trace not settled: last %v vs stable %v", last.V, trueStable)
	}
}

// TestRunCaseDeterministic: one seed gives one sensor trace, another seed
// another.
func TestRunCaseDeterministic(t *testing.T) {
	c := smallCase(t)
	a := runCase(t, c, seeded(5), 600).SensorTemps.Points()
	b := runCase(t, c, seeded(5), 600).SensorTemps.Points()
	if len(a) != len(b) {
		t.Fatal("trace lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
	other := runCase(t, c, seeded(6), 600).SensorTemps.Points()
	same := true
	for i := range a {
		if a[i] != other[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical sensor traces")
	}
}

// TestSecondAdvanceContinuesClock: a second Advance starts from the first
// one's clock and thermal state.
func TestSecondAdvanceContinuesClock(t *testing.T) {
	f, err := OneHost(smallCase(t), seeded(3))
	if err != nil {
		t.Fatal(err)
	}
	discard := func(telemetry.Reading) bool { return true }
	if err := f.Advance(300, discard); err != nil {
		t.Fatal(err)
	}
	warm, _ := f.Temps(0)
	tr := NewTrace(f, 31)
	if err := f.Advance(300, tr.Emit); err != nil {
		t.Fatal(err)
	}
	if f.NowS() != 600 {
		t.Errorf("clock = %v, want 600", f.NowS())
	}
	first, _ := tr.TrueTemps.First()
	if first.T != 305 || math.Abs(first.V-warm) > 2 {
		t.Errorf("second advance's first reading at %v s reads %v, want 305 s near the warm %v", first.T, first.V, warm)
	}
}

func TestOneHostMoreVMsRunHotter(t *testing.T) {
	opts := workload.DefaultGenOptions()
	opts.FanChoices = []int{4}
	opts.AmbientMinC, opts.AmbientMaxC = 22, 22
	stableFor := func(nVMs int) float64 {
		opts.VMCountMin, opts.VMCountMax = nVMs, nVMs
		c, err := workload.GenerateCase(opts, 21, "load")
		if err != nil {
			t.Fatal(err)
		}
		st, err := runCase(t, c, seeded(4), 1800).StableTemp(600)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	if few, many := stableFor(2), stableFor(12); many <= few {
		t.Errorf("12 VMs (%v °C) should run hotter than 2 VMs (%v °C)", many, few)
	}
}

// TestFailFansRaisesTemp: failing all but one fan mid-run raises the
// settled temperature.
func TestFailFansRaisesTemp(t *testing.T) {
	c := smallCase(t)
	run := func(failFans bool) float64 {
		f, err := OneHost(c, seeded(8))
		if err != nil {
			t.Fatal(err)
		}
		tr := NewTrace(f, 361)
		f.Sample(tr.Emit)
		if err := f.Advance(300, tr.Emit); err != nil {
			t.Fatal(err)
		}
		if failFans {
			if err := f.FailFans(0, c.FanCount-1); err != nil {
				t.Fatal(err)
			}
		}
		if err := f.Advance(1500, tr.Emit); err != nil {
			t.Fatal(err)
		}
		st, err := tr.StableTemp(900)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	if healthy, failed := run(false), run(true); failed <= healthy+2 {
		t.Errorf("fan failure should raise stable temp: healthy %v vs failed %v", healthy, failed)
	}
}

func TestFailFansValidation(t *testing.T) {
	c := smallCase(t)
	f, err := OneHost(c, seeded(45))
	if err != nil {
		t.Fatal(err)
	}
	if err := f.FailFans(0, 0); err == nil {
		t.Error("zero failures should fail")
	}
	if err := f.FailFans(0, c.FanCount+1); err == nil {
		t.Error("more failures than fans should fail")
	}
}

// TestPlaceMidRunHeatsServer: a hot VM placed on the host mid-run (a
// migration landing) raises its settled temperature and runs there.
func TestPlaceMidRunHeatsServer(t *testing.T) {
	c := smallCase(t)
	baseline, err := runCase(t, c, seeded(40), 1800).SensorTemps.MeanAfter(1500)
	if err != nil {
		t.Fatal(err)
	}
	f, err := OneHost(c, seeded(40))
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTrace(f, 361)
	f.Sample(tr.Emit)
	if err := f.Advance(610, tr.Emit); err != nil {
		t.Fatal(err)
	}
	if err := f.Place(0, hotVMSpec("hot")); err != nil {
		t.Fatal(err)
	}
	if err := f.Advance(1190, tr.Emit); err != nil {
		t.Fatal(err)
	}
	withHot, err := tr.SensorTemps.MeanAfter(1500)
	if err != nil {
		t.Fatal(err)
	}
	if withHot <= baseline+1 {
		t.Errorf("a hot VM placed mid-run should heat the server: %v vs baseline %v", withHot, baseline)
	}
	if _, err := f.Host(0).VM("hot"); err != nil {
		t.Errorf("placed VM: %v", err)
	}
}

// TestPlaceOverCapacityLeavesHostRunning: a VM the host cannot admit is
// refused at Place, and the host runs on.
func TestPlaceOverCapacityLeavesHostRunning(t *testing.T) {
	c := smallCase(t)
	f, err := OneHost(c, seeded(46))
	if err != nil {
		t.Fatal(err)
	}
	discard := func(telemetry.Reading) bool { return true }
	if err := f.Advance(100, discard); err != nil {
		t.Fatal(err)
	}
	huge := workload.VMSpec{
		ID:     "huge",
		Config: vmm.VMConfig{VCPUs: 4, MemoryGB: c.Host.MemoryGB},
		Tasks:  []workload.TaskSpec{{Task: vmm.Task{ID: "huge-t", Class: vmm.CPUBound, CPUFraction: 0.5, MemGB: 8}}},
	}
	if err := f.Place(0, huge); err == nil {
		t.Fatal("a VM beyond the host's free memory was placed")
	}
	if _, ok := f.Owner("huge"); ok || f.Host(0).NumVMs() != len(c.VMs) {
		t.Errorf("the refused VM is on the host: %d VMs", f.Host(0).NumVMs())
	}
	if err := f.Advance(60, discard); err != nil {
		t.Errorf("host unusable after a refused placement: %v", err)
	}
}

// TestOneHostConstantProfilesRetireOnceApplied: on a one-host fleet a
// constant profile leaves the tick's list on the first tick that applies
// it; a time-varying one stays.
func TestOneHostConstantProfilesRetireOnceApplied(t *testing.T) {
	c := smallCase(t)
	f, err := OneHost(c, seeded(12))
	if err != nil {
		t.Fatal(err)
	}
	sh := f.hosts[0]
	profiled := 0
	for _, vm := range c.VMs {
		for _, ts := range vm.Tasks {
			if _, ok := ts.Profile.(workload.Constant); !ok {
				t.Fatalf("task %s of the constant-load case follows %T", ts.Task.ID, ts.Profile)
			}
			profiled++
		}
	}
	if profiled == 0 || len(sh.driven) != profiled {
		t.Fatalf("placed case drives %d tasks, want its %d constant ones", len(sh.driven), profiled)
	}
	emit := func(telemetry.Reading) bool { return true }
	if err := f.Advance(10, emit); err != nil {
		t.Fatal(err)
	}
	if len(sh.driven) != 0 {
		t.Fatalf("after a run %d case drivers remain, want the constants retired", len(sh.driven))
	}

	spec := func(id string) workload.VMSpec {
		return workload.VMSpec{ID: id, Config: vmm.VMConfig{VCPUs: 2, MemoryGB: 4}, Tasks: []workload.TaskSpec{
			{Task: vmm.Task{ID: id + "-x", Class: vmm.CPUBound, CPUFraction: 0.5, MemGB: 1}, Profile: workload.Constant{Level: 0.9}},
			{Task: vmm.Task{ID: id + "-y", Class: vmm.CPUBound, CPUFraction: 0.5, MemGB: 1}, Profile: workload.Sine{Base: 0.5, Amplitude: 0.2, Period: 30}},
		}}
	}
	if err := f.Place(0, spec("ext")); err != nil {
		t.Fatal(err)
	}
	ext, err := f.Host(0).VM("ext")
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Advance(10, emit); err != nil {
		t.Fatal(err)
	}
	if len(sh.driven) != 1 || sh.driven[0].vm != ext || sh.driven[0].task != 1 || ext.TaskAt(0).CPUFraction != 0.9 {
		t.Errorf("after ext ran: %d driven, x at %v; want ext's sine and 0.9", len(sh.driven), ext.TaskAt(0).CPUFraction)
	}
}

// advanceRefuses checks that Advance refuses each duration with an error
// naming it, and leaves the clock at zero.
func advanceRefuses(t *testing.T, durs ...float64) {
	t.Helper()
	f, err := OneHost(smallCase(t), seeded(1))
	if err != nil {
		t.Fatal(err)
	}
	discard := func(telemetry.Reading) bool { return true }
	for _, dur := range durs {
		if err := f.Advance(dur, discard); err == nil || !strings.Contains(err.Error(), "duration") {
			t.Errorf("Advance(%v) = %v, want an error naming the duration", dur, err)
		}
	}
	if f.NowS() != 0 {
		t.Errorf("refused advances moved the clock to %v", f.NowS())
	}
}

// TestAdvanceRejectsNonFiniteDuration: Advance needs a finite duration.
func TestAdvanceRejectsNonFiniteDuration(t *testing.T) {
	advanceRefuses(t, math.NaN(), math.Inf(1), math.Inf(-1))
}

// TestAdvanceRequiresPositiveDuration: Advance needs a duration past now.
func TestAdvanceRequiresPositiveDuration(t *testing.T) {
	advanceRefuses(t, 0, -5)
}

// clockProfile logs every tick that drives it.
type clockProfile struct{ log *[]string }

func (p clockProfile) At(t float64) float64 {
	*p.log = append(*p.log, fmt.Sprint("tick ", t))
	return 0.5
}

// logFleet is a one-host fleet whose one task logs each tick into log, and
// an emit that logs each sample there.
func logFleet(t *testing.T, log *[]string, tickS, sampleS float64) (*Fleet, func(telemetry.Reading) bool) {
	t.Helper()
	c := workload.Case{Name: "log", Host: vmm.DefaultHostConfig(), FanCount: 4, AmbientC: 22, VMs: []workload.VMSpec{{
		ID: "vm", Config: vmm.VMConfig{VCPUs: 1, MemoryGB: 1},
		Tasks: []workload.TaskSpec{{Task: vmm.Task{ID: "t", Class: vmm.CPUBound, CPUFraction: 0.5, MemGB: 0.5}, Profile: clockProfile{log}}},
	}}}
	cfg := seeded(1)
	cfg.TickS, cfg.SampleS = tickS, sampleS
	f, err := OneHost(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return f, func(r telemetry.Reading) bool {
		*log = append(*log, fmt.Sprint("sample ", r.AtS))
		return true
	}
}

// TestAdvanceOrdersEventsByTime spells out Advance's order: ticks and
// samples merged by time, nothing at a call's start, and a second call
// going on where the first stopped.
func TestAdvanceOrdersEventsByTime(t *testing.T) {
	var log []string
	f, emit := logFleet(t, &log, 0.25, 0.5)
	for i := 0; i < 2; i++ {
		if err := f.Advance(1.25, emit); err != nil {
			t.Fatal(err)
		}
	}
	want := "tick 0.25|tick 0.5|sample 0.5|tick 0.75|tick 1|sample 1|tick 1.25|" +
		"tick 1.5|tick 1.75|sample 1.75|tick 2|tick 2.25|sample 2.25|tick 2.5"
	if got := strings.Join(log, "|"); got != want {
		t.Errorf("event log\n got %s\nwant %s", got, want)
	}
}

// TestAdvanceFiresTickBeforeSampleOnTie: when a tick and a sample fall at
// the same instant the tick fires first, so every reading sees the load
// its own instant's tick set.
func TestAdvanceFiresTickBeforeSampleOnTie(t *testing.T) {
	var log []string
	f, emit := logFleet(t, &log, 1, 1)
	if err := f.Advance(5, emit); err != nil {
		t.Fatal(err)
	}
	if len(log) != 10 {
		t.Fatalf("event log %v, want 5 ticks and 5 samples", log)
	}
	for i := 0; i < len(log); i += 2 {
		at := fmt.Sprint(i/2 + 1)
		if log[i] != "tick "+at || log[i+1] != "sample "+at {
			t.Errorf("events %d, %d = %q, %q; want the tick at %s before the sample", i, i+1, log[i], log[i+1], at)
		}
	}
}

// TestAdvanceHorizonStopsBeforeLaterEvents: events past an Advance horizon
// wait for the next call, and a tick that rounding lands just past a
// horizon fires first in the next call.
func TestAdvanceHorizonStopsBeforeLaterEvents(t *testing.T) {
	var log []string
	f, emit := logFleet(t, &log, 0.1, 1)
	tick, seven := 0.1, 7.0
	carried := fmt.Sprint("tick ", seven*tick) // rounds past 0.7
	for i, wantTicks := range []int{6, 8} {
		log = nil
		if err := f.Advance(0.7, emit); err != nil {
			t.Fatal(err)
		}
		if len(log) != wantTicks || slices.Contains(log, carried) != (i == 1) || i == 1 && log[0] != carried {
			t.Errorf("call %d: %v; want %d ticks, %s only first in the second", i, log, wantTicks, carried)
		}
	}
	if f.NowS() != 1.4 {
		t.Errorf("clock = %v after two 0.7 s advances, want 1.4", f.NowS())
	}
}

// TestAdvanceStampsAtOrBeforeNow is telemetry.Source's clock contract for
// the simulated fleet: every reading an Advance emits is stamped at or
// before NowS after that Advance — over durations that are no multiple of
// the sample interval, and when a sample that rounding lands a hair past one
// horizon is carried into the next call.
func TestAdvanceStampsAtOrBeforeNow(t *testing.T) {
	var log []string
	one, _ := logFleet(t, &log, 0.1, 0.1) // 7 × 0.1 s lands past 0.7 s
	for _, tc := range []struct {
		f    *Fleet
		durs []float64
	}{
		{testFleet(t), []float64{15, 7, 2.5, 0.35, 15, 4.9}},
		{one, []float64{0.7, 0.7, 0.3, 1.1}},
	} {
		emitted := 0
		for _, dur := range tc.durs {
			var stamps []float64
			if err := tc.f.Advance(dur, func(r telemetry.Reading) bool { stamps = append(stamps, r.AtS); return true }); err != nil {
				t.Fatal(err)
			}
			for _, at := range stamps {
				if at > tc.f.NowS() {
					t.Fatalf("a reading stamped %v after an Advance that ends at %v", at, tc.f.NowS())
				}
			}
			emitted += len(stamps)
		}
		if emitted == 0 {
			t.Fatal("no readings emitted")
		}
	}
}

// TestWarmAdvanceAllocatesNothing: a warm tick and sample sweep allocate
// nothing.
func TestWarmAdvanceAllocatesNothing(t *testing.T) {
	f := testFleet(t)
	for i := range f.IDs() {
		if err := f.Place(i, hotVMSpec(fmt.Sprintf("vm-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	emit := func(telemetry.Reading) bool { return true }
	if err := f.Advance(15, emit); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(20, func() {
		if err := f.Advance(15, emit); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("a warm 15 s advance allocates %v times", allocs)
	}
}

// traceDigest is the SHA-256 of every point of the four series of each
// trace, as bits, series by series.
func traceDigest(traces ...*Trace) string {
	h := sha256.New()
	var b []byte
	for _, tr := range traces {
		for _, s := range []*timeseries.Series{tr.SensorTemps, tr.TrueTemps, tr.Utilization, tr.MemActive} {
			b = binary.LittleEndian.AppendUint64(b[:0], uint64(s.Len()))
			for _, p := range s.Points() {
				b = binary.LittleEndian.AppendUint64(b, math.Float64bits(p.T))
				b = binary.LittleEndian.AppendUint64(b, math.Float64bits(p.V))
			}
			h.Write(b)
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestOneHostTraceGolden pins a scripted single-server run, bit for bit:
// a dynamic four-VM case on a one-host fleet; a VM with a constant and a
// sine task landing at the first tick after its pre-copy from 200 s; a fan
// failing at 300 s; and a second trace whose Advance continues the clock.
func TestOneHostTraceGolden(t *testing.T) {
	opts := workload.DefaultGenOptions()
	opts.VMCountMin, opts.VMCountMax = 4, 4
	opts.Dynamic = true
	c, err := workload.GenerateCase(opts, 21, "scripted")
	if err != nil {
		t.Fatal(err)
	}
	f, err := OneHost(c, seeded(21))
	if err != nil {
		t.Fatal(err)
	}
	in := hotVMSpec("mig-in")
	in.Tasks[1].Profile = workload.Sine{Base: 0.6, Amplitude: 0.3, Period: 97.5, Phase: 1}
	plan, err := vmm.PlanMigration(in.Config.MemoryGB, vmm.DefaultMigrationSpec())
	if err != nil {
		t.Fatal(err)
	}
	landS := math.Ceil(200 + plan.TotalSeconds())
	first := NewTrace(f, 241)
	f.Sample(first.Emit)
	for _, step := range []struct {
		toS float64
		do  func() error
	}{
		{landS, func() error { return f.Place(0, in) }},
		{300, func() error { return f.FailFans(0, 1) }},
		{1200, func() error { return nil }},
	} {
		if err := f.Advance(step.toS-f.NowS(), first.Emit); err != nil {
			t.Fatal(err)
		}
		if err := step.do(); err != nil {
			t.Fatal(err)
		}
	}
	second := NewTrace(f, 61)
	if err := f.Advance(300, second.Emit); err != nil {
		t.Fatal(err)
	}
	if got, want := traceDigest(first, second), "fa834e748fe6c311c77165457eb55dd9e464557182e5a9dfea4dc8399072fc33"; got != want {
		t.Errorf("one-host trace digest %s, want %s", got, want)
	}
}
