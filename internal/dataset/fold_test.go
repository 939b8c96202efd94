package dataset

import (
	"fmt"
	"math"
	"testing"

	"vmtherm/internal/mathx"
	"vmtherm/internal/vmm"
	"vmtherm/internal/workload"
)

// foldTasks builds n tasks, every second one profiled (the others encode
// their CPUFraction).
func foldTasks(id string, n int) []workload.TaskSpec {
	out := make([]workload.TaskSpec, n)
	for k := range out {
		out[k].Task = vmm.Task{
			ID: fmt.Sprintf("%s-t%d", id, k), Class: vmm.TaskClass(1 + k%4),
			CPUFraction: 0.1 + 0.07*float64(k), MemGB: 0.5,
		}
		if k%2 == 0 {
			out[k].Profile = workload.Sine{Base: 0.5, Amplitude: 0.3, Period: 300 + 70*float64(k), Phase: float64(len(id))}
		}
	}
	return out
}

// residents draws a host's deployment as a deployment view lists it: VMs
// of unprofiled tasks, some task-less, loads that can exceed the vCPUs.
func residents(rng *mathx.RNG, id string) []workload.VMSpec {
	vms := make([]workload.VMSpec, rng.Intn(4))
	for v := range vms {
		vcpus := rng.IntBetween(1, 4)
		vms[v] = workload.VMSpec{ID: fmt.Sprintf("%s-r%d", id, v), Config: vmm.VMConfig{VCPUs: vcpus, MemoryGB: float64(2 * vcpus)}}
		for k := rng.Intn(vcpus + 3); k > 0; k-- {
			vms[v].Tasks = append(vms[v].Tasks, workload.TaskSpec{Task: vmm.Task{
				ID: fmt.Sprintf("%s-r%d-t%d", id, v, k), Class: vmm.TaskClass(rng.Intn(6)),
				CPUFraction: rng.Uniform(0, 1), MemGB: rng.Uniform(0, 3),
			}})
		}
	}
	return vms
}

// TestFoldEncodeIdentical: a deployment folded once, then copied and
// extended by one candidate per copy — the way placement prices a window of
// hosts — finishes to EncodeInto's bits for the case "deployment +
// candidate", over random deployments (empty, task-less VMs, loads above
// the vCPUs, unknown task classes) and candidates with and without
// profiles; Demand is feature 7; and Finish refuses what EncodeInto
// refuses, with the same errors.
func TestFoldEncodeIdentical(t *testing.T) {
	const horizonS = 1800
	rng := mathx.SplitStable(2016, "fold")
	cands := []workload.VMSpec{
		{ID: "cand-profiled", Config: vmm.VMConfig{VCPUs: 4, MemoryGB: 8}, Tasks: foldTasks("p", 5)},
		{ID: "cand-flat", Config: vmm.VMConfig{VCPUs: 1, MemoryGB: 1}, Tasks: []workload.TaskSpec{
			{Task: vmm.Task{ID: "f-t0", Class: vmm.Bursty, CPUFraction: 0.9, MemGB: 2}},
			{Task: vmm.Task{ID: "f-t1", Class: vmm.MemBound, CPUFraction: 0.7, MemGB: 0}},
		}},
		{ID: "cand-empty", Config: vmm.VMConfig{VCPUs: 2, MemoryGB: 4}},
	}
	want := make([]float64, NumFeatures())
	got := make([]float64, NumFeatures())
	for h := 0; h < 200; h++ {
		id := fmt.Sprintf("h%03d", h)
		host := vmm.DefaultHostConfig()
		amb := rng.Uniform(15, 35)
		deployed := residents(rng, id)
		var base Fold
		for i := range deployed {
			for k := range deployed[i].Tasks {
				base.AddTask(deployed[i].Tasks[k].Task.CPUFraction, &deployed[i].Tasks[k].Task)
			}
			base.AddVM(deployed[i].Config)
		}
		for ci := range cands {
			cand := &cands[ci]
			c := workload.Case{Name: id, Host: host, FanCount: 4, AmbientC: amb,
				VMs: append(append([]workload.VMSpec(nil), deployed...), *cand)}
			wantErr := EncodeInto(c, horizonS, want)

			f := base
			for k := range cand.Tasks {
				d, err := TaskDemand(&cand.Tasks[k], horizonS)
				if err != nil {
					t.Fatal(err)
				}
				f.AddTask(d, &cand.Tasks[k].Task)
			}
			f.AddVM(cand.Config)
			gotErr := f.Finish(host, 4, amb, got)
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Fatalf("%s + %s: Finish error %v, EncodeInto %v", id, cand.ID, gotErr, wantErr)
			}
			if wantErr != nil {
				continue
			}
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s + %s: feature %s = %v folded, %v encoded", id, cand.ID, featureNames[i], got[i], want[i])
				}
			}
			if math.Float64bits(f.Demand()) != math.Float64bits(want[7]) {
				t.Fatalf("%s + %s: Demand %v, feature 7 %v", id, cand.ID, f.Demand(), want[7])
			}
		}
	}
	var empty Fold
	if err := empty.Finish(vmm.DefaultHostConfig(), 4, 20, got); err == nil || err.Error() != "dataset: case has no VMs" {
		t.Fatalf("empty fold: %v", err)
	}
	if err := empty.Finish(vmm.DefaultHostConfig(), 4, 20, got[:3]); err == nil {
		t.Fatal("a short dst was accepted")
	}
}

// TestFoldZeroAlloc: encoding through the fold keeps EncodeInto's
// no-allocation contract, profiled tasks included.
func TestFoldZeroAlloc(t *testing.T) {
	c := workload.Case{Name: "alloc", Host: vmm.DefaultHostConfig(), FanCount: 4, AmbientC: 21,
		VMs: []workload.VMSpec{{ID: "v", Config: vmm.VMConfig{VCPUs: 4, MemoryGB: 8}, Tasks: foldTasks("alloc", 4)}}}
	dst := make([]float64, NumFeatures())
	if allocs := testing.AllocsPerRun(50, func() {
		if err := EncodeInto(c, 1800, dst); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("EncodeInto allocates %.1f/op, want 0", allocs)
	}
}
