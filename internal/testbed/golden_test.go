package testbed

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"vmtherm/internal/sim"
	"vmtherm/internal/timeseries"
	"vmtherm/internal/vmm"
	"vmtherm/internal/workload"
)

// traceDigest is the SHA-256 of every point of the four series of each
// result, as bits, series by series.
func traceDigest(results ...*Result) string {
	h := sha256.New()
	var b []byte
	for _, res := range results {
		for _, s := range []*timeseries.Series{res.SensorTemps, res.TrueTemps, res.Utilization, res.MemActive} {
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

// scriptedRig runs a dynamic four-VM case through every scenario injector:
// a VM migrating in at 200 s (a constant and a sine task), one of the
// case's VMs migrating out at 700 s, a fan failing at 300 s and the inlet
// warming at 500 s; then a second run continues the clock.
func scriptedRig(t *testing.T) []*Result {
	t.Helper()
	opts := workload.DefaultGenOptions()
	opts.VMCountMin, opts.VMCountMax = 4, 4
	opts.Dynamic = true
	c, err := workload.GenerateCase(opts, 21, "scripted")
	if err != nil {
		t.Fatal(err)
	}
	rig, err := New(c, Options{Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	in := hotVMSpec("mig-in")
	in.Tasks[1].Profile = workload.Sine{Base: 0.6, Amplitude: 0.3, Period: 97.5, Phase: 1}
	mig := vmm.DefaultMigrationSpec()
	for _, err := range []error{
		rig.ScheduleMigrationIn(200, in, mig),
		rig.ScheduleMigrationOut(700, c.VMs[0].ID, mig),
		rig.ScheduleFanFailures(300, 1),
		rig.ScheduleAmbient(500, 31),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	var out []*Result
	for _, cfg := range []RunConfig{{DurationS: 1200, TickS: 1, SampleS: 5}, {DurationS: 300, TickS: 1, SampleS: 7}} {
		res, err := rig.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, res)
	}
	return out
}

// pendingRig tracks an external VM placed on the rig's host but left
// pending until 250 s: its constant task starts at 0.5 against a profile
// of 0.9 and its sine task at 0.3, and neither profile may drive it, nor
// its load reach the server, before it starts.
func pendingRig(t *testing.T) (*Result, *vmm.VM) {
	t.Helper()
	rig, err := New(smallCase(t), Options{Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	ext, err := vmm.NewVM("external", vmm.VMConfig{VCPUs: 2, MemoryGB: 4})
	if err != nil {
		t.Fatal(err)
	}
	specs := []workload.TaskSpec{
		{Task: vmm.Task{ID: "x", Class: vmm.CPUBound, CPUFraction: 0.5, MemGB: 1}, Profile: workload.Constant{Level: 0.9}},
		{Task: vmm.Task{ID: "y", Class: vmm.Bursty, CPUFraction: 0.3, MemGB: 0.5}, Profile: workload.Sine{Base: 0.5, Amplitude: 0.4, Period: 61}},
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
	if err := rig.Engine().Schedule(250, "start-external", func(e *sim.Engine) {
		if got := ext.TaskAt(0).CPUFraction; got != 0.5 {
			t.Errorf("pending vm's constant task driven to %v before it started", got)
		}
		if err := ext.Start(e.Now()); err != nil {
			t.Error(err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	res, err := rig.Run(RunConfig{DurationS: 600, TickS: 1, SampleS: 5})
	if err != nil {
		t.Fatal(err)
	}
	return res, ext
}

// TestRigTraceGolden pins the rig's four series, bit for bit, against
// digests recorded before the event queue held values, VMs kept their load
// sums and the tick retired constant profiles.
func TestRigTraceGolden(t *testing.T) {
	if got, want := traceDigest(scriptedRig(t)...), "9f0544bb24bea42835f94dbbf529a24cee9320aea61466ed5f5448a15dbc9751"; got != want {
		t.Errorf("scripted rig: trace digest %s, want %s", got, want)
	}
	res, ext := pendingRig(t)
	if got, want := traceDigest(res), "a2e8680c06dcb06680089931ec5b2b2517f641cd06c5b114af6c83176f781bff"; got != want {
		t.Errorf("pending rig: trace digest %s, want %s", got, want)
	}
	if got := ext.TaskAt(0).CPUFraction; got != 0.9 {
		t.Errorf("tracked vm's constant task at %v after it ran, want 0.9", got)
	}
}
