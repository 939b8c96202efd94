package substrate

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"vmtherm/internal/anchorcache"
	"vmtherm/internal/mathx"
	"vmtherm/internal/telemetry"
	"vmtherm/internal/vmm"
	"vmtherm/internal/workload"
)

// testFleet is a 2 × 4 fleet of default hosts with four fans, ticking on
// one worker.
func testFleet(t *testing.T) *Fleet {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Racks, cfg.HostsPerRack, cfg.Seed = 2, 4, 7
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	f, err := New(cfg, vmm.DefaultHostConfig(), 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// sineSpec draws a VM whose tasks follow sines, so every tick rewrites
// their CPU fractions; task ids descend while deployment order ascends, so
// the view must sort them.
func sineSpec(rng *mathx.RNG, id string) workload.VMSpec {
	vcpus := rng.IntBetween(1, 3)
	spec := workload.VMSpec{ID: id, Config: vmm.VMConfig{VCPUs: vcpus, MemoryGB: float64(2 * vcpus)}}
	for k := vcpus - 1; k >= 0; k-- {
		base := rng.Uniform(0.3, 0.7)
		spec.Tasks = append(spec.Tasks, workload.TaskSpec{
			Task:    vmm.Task{ID: fmt.Sprintf("%s-t%d", id, k), Class: vmm.CPUBound, CPUFraction: base, MemGB: 0.5},
			Profile: workload.Sine{Base: base, Amplitude: 0.25, Period: rng.Uniform(40, 400)},
		})
	}
	return spec
}

// TestHostCaseViewMatchesHostStateCase is the differential test of the
// memoised deployment views behind Deployment: over a seeded sequence of
// Place, Migrate, Remove and Advance, every host's view is
// reflect.DeepEqual to a fresh HostStateCase's VMs, and some views are
// still valid when compared, so the memo is exercised and not merely
// rebuilt at every call. A host whose deployment differs from the one seen
// at its last comparison must show a new Generation, so a memo keyed on the
// generation cannot serve a stale deployment. After every op the round's
// read-only calls run as well — ScanAnchors and LargestVM on every slot —
// and must leave every valid view valid and every generation where it was.
func TestHostCaseViewMatchesHostStateCase(t *testing.T) {
	f := testFleet(t)
	rng := mathx.SplitStable(2016, "substrate-view")
	var live []string
	counts := map[string]int{}
	reused, advanced := 0, 0
	seenGen := make([]uint64, len(f.hosts))
	seenVMs := make([][]workload.VMSpec, len(f.hosts))
	for step := 0; step < 400; step++ {
		op := []string{"place", "place", "migrate", "remove", "advance"}[rng.Intn(5)]
		switch op {
		case "place":
			spec := sineSpec(rng, fmt.Sprintf("vm-%03d", step))
			if f.Place(rng.Intn(len(f.IDs())), spec) != nil {
				op = "refused"
				break
			}
			live = append(live, spec.ID)
		case "migrate":
			if len(live) == 0 {
				continue
			}
			id := live[rng.Intn(len(live))]
			from, _ := f.Owner(id)
			if f.Migrate(id, from, rng.Intn(len(f.IDs()))) != nil {
				op = "refused"
			}
		case "remove":
			if len(live) == 0 {
				continue
			}
			k := rng.Intn(len(live))
			if _, err := f.Remove(live[k]); err != nil {
				t.Fatal(err)
			}
			live = append(live[:k], live[k+1:]...)
		case "advance":
			if err := f.Advance(15, func(telemetry.Reading) bool { return true }); err != nil {
				t.Fatal(err)
			}
		}
		counts[op]++
		valid := make([]bool, len(f.hosts))
		gens := make([]uint64, len(f.hosts))
		for i, sh := range f.hosts {
			valid[i], gens[i] = sh.viewOK, f.Generation(i)
		}
		f.ScanAnchors(anchorcache.DefaultQuantizer())
		for i := range f.IDs() {
			if _, err := f.LargestVM(i); err != nil && !errors.Is(err, ErrNoSuchVM) {
				t.Fatal(err)
			}
		}
		for i, sh := range f.hosts {
			if valid[i] && !sh.viewOK || gens[i] != f.Generation(i) {
				t.Fatalf("step %d (%s): ScanAnchors or LargestVM invalidated %s's view", step, op, f.IDs()[i])
			}
			if sh.viewOK {
				reused++
			}
		}
		for i := range f.IDs() {
			inlet := f.Inlet(i)
			want, _ := HostStateCase(f.Host(i), 4, inlet, nil)
			vms, gen := f.Deployment(i), f.Generation(i)
			if len(vms) != len(want.VMs) || len(vms) > 0 && !reflect.DeepEqual(vms, want.VMs) {
				t.Fatalf("step %d (%s): deployment of %s diverged:\n got %+v\nwant %+v", step, op, f.IDs()[i], vms, want.VMs)
			}
			if gen == 0 || gen == seenGen[i] && !reflect.DeepEqual(want.VMs, seenVMs[i]) {
				t.Fatalf("step %d (%s): %s's deployment changed under generation %d", step, op, f.IDs()[i], gen)
			}
			if gen != seenGen[i] {
				advanced++
			}
			seenGen[i], seenVMs[i] = gen, want.VMs
		}
	}
	t.Logf("ops %v, %d views still valid at a comparison, %d generation changes", counts, reused, advanced)
	for _, op := range []string{"place", "migrate", "remove", "advance"} {
		if counts[op] == 0 {
			t.Fatalf("the sequence never ran %s", op)
		}
	}
	if reused == 0 {
		t.Fatal("no view was valid at any comparison: the memo path was never exercised")
	}
}

// drivenSpec draws a VM whose tasks follow a Constant, a Sine or a Bursty
// profile each.
func drivenSpec(rng *mathx.RNG, id string) workload.VMSpec {
	spec := sineSpec(rng, id)
	for k := range spec.Tasks {
		switch rng.Intn(3) {
		case 0:
			spec.Tasks[k].Profile = workload.Constant{Level: rng.Uniform(0.1, 0.9)}
		case 1:
			spec.Tasks[k].Profile = workload.Bursty{Low: 0.1, High: rng.Uniform(0.5, 1), Period: rng.Uniform(20, 90), DutyCycle: 0.3}
		}
	}
	return spec
}

// TestTickLoadsMatchHostLoads is the differential test of the load memo
// the tick, the sensor sweep and ScanAnchors read: over seeded sequences
// of Place, Migrate, Remove and Advance with Constant, Sine and Bursty
// drivers, every memo still valid after an operation equals a fresh
// Host.Loads bit for bit, and so does every host's after ScanAnchors — on
// one physics worker, and on four over a fleet large enough for the sensor
// sweep and the scan to shard too. Some memos must be valid when checked,
// so the memo is exercised and not merely rebuilt.
func TestTickLoadsMatchHostLoads(t *testing.T) {
	for _, tc := range []struct{ racks, perRack, workers, stride int }{{2, 4, 1, 1}, {8, 128, 4, 64}} {
		t.Run(fmt.Sprintf("workers=%d", tc.workers), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Racks, cfg.HostsPerRack, cfg.Seed = tc.racks, tc.perRack, 11
			f, err := New(cfg, vmm.DefaultHostConfig(), 4, tc.workers)
			if err != nil {
				t.Fatal(err)
			}
			rng := mathx.SplitStable(2017, "substrate-loads")
			slot := func() int { return tc.stride * rng.Intn(len(f.IDs())/tc.stride) }
			check := func(step int, op string, all bool) (valid int) {
				t.Helper()
				for i, sh := range f.hosts {
					if !all && !sh.loadsOK {
						continue
					}
					if sh.loadsOK && sh.host.NumVMs() > 0 {
						valid++
					}
					gu, gm := sh.loads()
					wu, wm := sh.host.Loads()
					if math.Float64bits(gu) != math.Float64bits(wu) || math.Float64bits(gm) != math.Float64bits(wm) {
						t.Fatalf("step %d (%s): %s's memo (%v, %v), Host.Loads (%v, %v)", step, op, f.IDs()[i], gu, gm, wu, wm)
					}
				}
				return valid
			}
			var live []string
			counts := map[string]int{}
			reused := 0
			for step := 0; step < 300; step++ {
				op := []string{"place", "place", "migrate", "remove", "advance"}[rng.Intn(5)]
				switch op {
				case "place":
					spec := drivenSpec(rng, fmt.Sprintf("vm-%03d", step))
					if f.Place(slot(), spec) != nil {
						op = "refused"
						break
					}
					live = append(live, spec.ID)
				case "migrate":
					if len(live) == 0 {
						continue
					}
					id := live[rng.Intn(len(live))]
					from, _ := f.Owner(id)
					if f.Migrate(id, from, slot()) != nil {
						op = "refused"
					}
				case "remove":
					if len(live) == 0 {
						continue
					}
					k := rng.Intn(len(live))
					if _, err := f.Remove(live[k]); err != nil {
						t.Fatal(err)
					}
					live = append(live[:k], live[k+1:]...)
				case "advance":
					if err := f.Advance(15, func(telemetry.Reading) bool { return true }); err != nil {
						t.Fatal(err)
					}
				}
				counts[op]++
				reused += check(step, op, false)
				f.ScanAnchors(anchorcache.DefaultQuantizer())
				check(step, op+"+scan", true)
			}
			t.Logf("ops %v, %d occupied hosts' memos valid at a check", counts, reused)
			for _, op := range []string{"place", "migrate", "remove", "advance"} {
				if counts[op] == 0 {
					t.Fatalf("the sequence never ran %s", op)
				}
			}
			if reused == 0 {
				t.Fatal("no occupied host's memo was valid at a check: the memo path was never exercised")
			}
		})
	}
}

// TestConfigValidateNamesPhysicsField: a non-finite or out-of-range field
// of the sensor template fails Config.Validate, and the error names it.
func TestConfigValidateNamesPhysicsField(t *testing.T) {
	for _, tc := range []struct {
		field  string
		mutate func(*Config)
	}{
		{"SensorParams.NoiseStdC", func(c *Config) { c.Sensor.NoiseStdC = math.NaN() }},
		{"SensorParams.QuantizationC", func(c *Config) { c.Sensor.QuantizationC = math.Inf(-1) }},
		{"negative quantization", func(c *Config) { c.Sensor.QuantizationC = -1 }},
	} {
		c := DefaultConfig()
		tc.mutate(&c)
		if err := c.Validate(); err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%s: Validate() = %v, want an error naming it", tc.field, err)
		}
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkSubstrateAdvance times the physics rung alone: round_sim4k's
// 32×128 layout with a Sine-driven VM on every second host, advanced one
// 15 s Δ_update per op on one worker. ns/host-tick is an op over its
// 4,096 hosts × 15 ticks.
func BenchmarkSubstrateAdvance(b *testing.B) {
	cfg := DefaultConfig()
	cfg.Racks, cfg.HostsPerRack = 32, 128
	f, err := New(cfg, vmm.DefaultHostConfig(), 4, 1)
	if err != nil {
		b.Fatal(err)
	}
	rng := mathx.SplitStable(2017, "substrate-bench")
	for i := 0; i < len(f.IDs()); i += 2 {
		if err := f.Place(i, sineSpec(rng, fmt.Sprintf("vm-%04d", i))); err != nil {
			b.Fatal(err)
		}
	}
	emit := func(telemetry.Reading) bool { return true }
	if err := f.Advance(15, emit); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if err := f.Advance(15, emit); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*15*len(f.IDs())), "ns/host-tick")
}

// TestConstantDriversRetire: the first tick applies a constant profile —
// invalidating the host's view, since the task's fraction changed — and
// retires it; later ticks leave the fraction and the view alone, and the
// view still equals a fresh HostStateCase.
func TestConstantDriversRetire(t *testing.T) {
	f := testFleet(t)
	spec := workload.VMSpec{ID: "const", Config: vmm.VMConfig{VCPUs: 2, MemoryGB: 4}, Tasks: []workload.TaskSpec{
		{Task: vmm.Task{ID: "c", Class: vmm.CPUBound, CPUFraction: 0.5, MemGB: 1}, Profile: workload.Constant{Level: 0.9}},
		{Task: vmm.Task{ID: "s", Class: vmm.CPUBound, CPUFraction: 0.5, MemGB: 1}, Profile: workload.Sine{Base: 0.5, Amplitude: 0.2, Period: 40}},
	}}
	if err := f.Place(3, spec); err != nil {
		t.Fatal(err)
	}
	sh := f.hosts[3]
	check := func(step string, wantFrac float64, wantDriven int) {
		t.Helper()
		inlet := f.Inlet(3)
		got := f.Deployment(3)
		want, err := HostStateCase(f.Host(3), 4, inlet, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want.VMs) {
			t.Fatalf("%s: deployment diverged:\n got %+v\nwant %+v", step, got, want.VMs)
		}
		if frac := got[0].Tasks[0].Task.CPUFraction; frac != wantFrac || len(sh.driven) != wantDriven {
			t.Fatalf("%s: constant task at %v with %d drivers, want %v and %d", step, frac, len(sh.driven), wantFrac, wantDriven)
		}
	}
	emit := func(telemetry.Reading) bool { return true }
	check("placed", 0.5, 2)
	if err := f.Advance(5, emit); err != nil {
		t.Fatal(err)
	}
	check("first advance", 0.9, 1)
	if _, err := f.Remove("const"); err != nil {
		t.Fatal(err)
	}
	spec.ID, spec.Tasks = "const2", spec.Tasks[:1]
	if err := f.Place(3, spec); err != nil {
		t.Fatal(err)
	}
	check("constant alone", 0.5, 1)
	if err := f.Advance(5, emit); err != nil {
		t.Fatal(err)
	}
	check("applied", 0.9, 0)
	if err := f.Advance(5, emit); err != nil {
		t.Fatal(err)
	}
	if !sh.viewOK {
		t.Error("a tick with no live driver invalidated the view")
	}
	check("retired", 0.9, 0)
}

// TestActiveFaults pins what ActiveFaults counts: each degraded CRAC
// dimension, a blackout and each faulted sensor, and nothing once every
// fault is cleared.
func TestActiveFaults(t *testing.T) {
	f := testFleet(t)
	steps := []struct {
		name string
		do   func() error
		want int
	}{
		{"healthy", func() error { return nil }, 0},
		{"capacity", func() error { return f.SetCRACCoolingCapacity(0.5) }, 1},
		{"setpoint", func() error { return f.SetCRACSetpointDelta(4) }, 2},
		{"recirc", func() error { return f.SetCRACRecircMultiplier(2) }, 3},
		{"dark", func() error { f.SetTelemetryDark(true); return nil }, 4},
		{"sensors", func() error {
			if err := f.SetSensorFault("r0-h1", SensorFault{Mode: SensorStuck, ValueC: 40}); err != nil {
				return err
			}
			return f.SetSensorFault("r1-h3", SensorFault{Mode: SensorNaN})
		}, 6},
		{"cleared", func() error {
			f.SetTelemetryDark(false)
			for _, err := range []error{
				f.SetCRACCoolingCapacity(1), f.SetCRACSetpointDelta(0), f.SetCRACRecircMultiplier(1),
				f.SetSensorFault("r0-h1", SensorFault{}), f.SetSensorFault("r1-h3", SensorFault{}),
			} {
				if err != nil {
					return err
				}
			}
			return nil
		}, 0},
	}
	for _, s := range steps {
		if err := s.do(); err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		if got := f.ActiveFaults(); got != s.want {
			t.Fatalf("%s: ActiveFaults = %d, want %d", s.name, got, s.want)
		}
	}
	if err := f.SetSensorFault("r9-h0", SensorFault{}); err == nil {
		t.Fatal("a sensor fault on a host the fleet lacks was accepted")
	}
	if _, _, err := f.RackSlots(2); err == nil {
		t.Fatal("rack 2 of a 2-rack fleet was accepted")
	}
}

// slackEvents counts the ticks and samples that calls Advance(dur) from
// clock 0 schedule inside the 1e-9 s past each horizon: they fire at the
// start of the next call, not in the one that scheduled them.
func slackEvents(tickS, sampleS, dur float64, calls int) (ticks, samples int) {
	start := 0.0
	for c := 0; c < calls; c++ {
		horizon := start + dur
		for i, every := range [...]float64{tickS, sampleS} {
			for k := 1; start+float64(k)*every <= horizon+1e-9; k++ {
				if start+float64(k)*every > horizon {
					if i == 0 {
						ticks++
					} else {
						samples++
					}
				}
			}
		}
		start = horizon
	}
	return ticks, samples
}

// TestAdvanceEventOrderGolden pins the order in which Advance interleaves
// ticks and samples, bit for bit, at settings where that order is not
// obvious: non-integer periods whose multiples drift off the horizon, a
// tick and a sample landing on one instant (the tick fires first), and
// events landing inside the 1e-9 s past a horizon, which fire first in the
// next call. The digest covers every emitted reading and every host's die
// and case temperature after every call.
func TestAdvanceEventOrderGolden(t *testing.T) {
	h := sha256.New()
	var b []byte
	for _, run := range []struct {
		tickS, sampleS, dur  float64
		calls                int
		slackTicks, slackSmp int
	}{
		{0.1, 0.3, 0.7, 10, 2, 0},
		{0.1, 0.14, 0.7, 10, 2, 2},
		{0.25, 0.5, 1.25, 4, 0, 0},
	} {
		if ticks, samples := slackEvents(run.tickS, run.sampleS, run.dur, run.calls); ticks != run.slackTicks || samples != run.slackSmp {
			t.Fatalf("%+v: %d ticks and %d samples in the slack, want %d and %d", run, ticks, samples, run.slackTicks, run.slackSmp)
		}
		cfg := DefaultConfig()
		cfg.Racks, cfg.HostsPerRack, cfg.Seed = 2, 4, 11
		cfg.TickS, cfg.SampleS = run.tickS, run.sampleS
		if err := cfg.Validate(); err != nil {
			t.Fatal(err)
		}
		f, err := New(cfg, vmm.DefaultHostConfig(), 4, 1)
		if err != nil {
			t.Fatal(err)
		}
		rng := mathx.SplitStable(11, "event-order")
		for i := range f.IDs() {
			if err := f.Place(i, sineSpec(rng, fmt.Sprintf("vm-%d", i))); err != nil {
				t.Fatal(err)
			}
		}
		emit := func(r telemetry.Reading) bool {
			b = append(b[:0], r.HostID...)
			for _, v := range [...]float64{r.AtS, r.TempC, r.Util, r.MemFrac} {
				b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
			}
			h.Write(b)
			return true
		}
		for c := 0; c < run.calls; c++ {
			if err := f.Advance(run.dur, emit); err != nil {
				t.Fatal(err)
			}
			b = binary.LittleEndian.AppendUint64(b[:0], math.Float64bits(f.NowS()))
			for i := range f.IDs() {
				die, cse := f.Temps(i)
				b = binary.LittleEndian.AppendUint64(b, math.Float64bits(die))
				b = binary.LittleEndian.AppendUint64(b, math.Float64bits(cse))
			}
			h.Write(b)
		}
	}
	if got, want := fmt.Sprintf("%x", h.Sum(nil)), "91b00e4b6bd54dcb12b46cbea704cbbbd8843254f8344bd97b9c43ea4c224bab"; got != want {
		t.Errorf("event order digest %s, want %s", got, want)
	}
}
