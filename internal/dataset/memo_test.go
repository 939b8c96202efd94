package dataset

import (
	"fmt"
	"math"
	"testing"

	"vmtherm/internal/vmm"
	"vmtherm/internal/workload"
)

// countedSine is a Sine that counts its At calls: the integrations a memo
// saves show up as calls not made.
type countedSine struct {
	workload.Sine
	calls *int
}

func (p countedSine) At(t float64) float64 { *p.calls++; return p.Sine.At(t) }

// memoTasks builds n tasks, every second one profiled (the others encode
// their CPUFraction), all counting into calls.
func memoTasks(id string, n int, calls *int) []workload.TaskSpec {
	out := make([]workload.TaskSpec, n)
	for k := range out {
		out[k].Task = vmm.Task{
			ID: fmt.Sprintf("%s-t%d", id, k), Class: vmm.TaskClass(1 + k%4),
			CPUFraction: 0.1 + 0.07*float64(k), MemGB: 0.5,
		}
		if k%2 == 0 {
			out[k].Profile = countedSine{
				Sine:  workload.Sine{Base: 0.5, Amplitude: 0.3, Period: 300 + 70*float64(k), Phase: float64(len(id))},
				calls: calls,
			}
		}
	}
	return out
}

// memoCase is a host with two unprofiled residents (what a deployment view
// contributes) and one candidate VM carrying tasks.
func memoCase(name string, ambient float64, tasks []workload.TaskSpec) workload.Case {
	resident := func(id string, frac float64) workload.VMSpec {
		return workload.VMSpec{ID: id, Config: vmm.VMConfig{VCPUs: 2, MemoryGB: 4}, Tasks: []workload.TaskSpec{
			{Task: vmm.Task{ID: id + "-t0", Class: vmm.CPUBound, CPUFraction: frac, MemGB: 1}},
			{Task: vmm.Task{ID: id + "-t1", Class: vmm.IOBound, CPUFraction: frac / 2, MemGB: 0.5}},
		}}
	}
	return workload.Case{
		Name: name, Host: vmm.DefaultHostConfig(), FanCount: 4, AmbientC: ambient,
		VMs: []workload.VMSpec{
			resident(name+"-r0", 0.4), resident(name+"-r1", 0.7),
			{ID: name + "-cand", Config: vmm.VMConfig{VCPUs: len(tasks), MemoryGB: 8}, Tasks: tasks},
		},
	}
}

// TestProfileMemoEncodeIdentical: through a memo or not, an encode yields
// the same bits — over cases that share a task list, share only part of one
// (same first element, other length; other first element), share nothing
// (equal content in other memory), with two horizons interleaved — and the
// memo integrates exactly when the list or the horizon changes.
func TestProfileMemoEncodeIdentical(t *testing.T) {
	var calls int
	shared := memoTasks("shared", 4, &calls)
	var cases []workload.Case
	for h := 0; h < 16; h++ { // a placement window: one candidate, 16 hosts
		cases = append(cases, memoCase(fmt.Sprintf("win-%d", h), 20+float64(h)/4, shared))
	}
	cases = append(cases,
		memoCase("prefix", 22, shared[:3]),                                // same first element, shorter
		memoCase("suffix", 22, shared[1:]),                                // other first element
		memoCase("copy", 22, append([]workload.TaskSpec(nil), shared...)), // equal content, other memory
		memoCase("other", 23, memoTasks("other", 5, &calls)),
		memoCase("again", 24, shared),
	)

	var memo ProfileMemo
	want := make([]float64, NumFeatures())
	got := make([]float64, NumFeatures())
	compare := func(c workload.Case, horizonS float64) (profileCalls int) {
		t.Helper()
		if err := EncodeInto(c, horizonS, want); err != nil {
			t.Fatal(err)
		}
		before := calls
		if err := memo.EncodeInto(c, horizonS, got); err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s @%v: feature %s = %v through the memo, %v without", c.Name, horizonS, featureNames[i], got[i], want[i])
			}
		}
		return calls - before
	}

	const grid = 201 // MeanOver's points per profile
	for i, c := range cases {
		profiled := 0
		for _, ts := range c.VMs[2].Tasks {
			if ts.Profile != nil {
				profiled++
			}
		}
		wantCalls := profiled * grid
		if i > 0 && i < 16 {
			wantCalls = 0 // the window after its first host
		}
		if n := compare(c, 1800); n != wantCalls {
			t.Fatalf("%s: memo made %d profile calls, want %d", c.Name, n, wantCalls)
		}
	}

	// A horizon change is a miss, in both directions, on the same list.
	c := cases[0]
	compare(c, 1800)
	for i, h := range []float64{900, 1800, 1800, 900, 900} {
		wantCalls := 2 * grid
		if i == 2 || i == 4 {
			wantCalls = 0
		}
		if n := compare(c, h); n != wantCalls {
			t.Fatalf("horizon step %d (%v): %d profile calls, want %d", i, h, n, wantCalls)
		}
	}

	// The key is the list's memory: rewriting it in place is only sound
	// across a Reset, which is why the owner resets per batch.
	shared[0].Profile = countedSine{Sine: workload.Sine{Base: 0.2, Amplitude: 0.1, Period: 60}, calls: &calls}
	memo.Reset()
	if n := compare(c, 900); n != 2*grid {
		t.Fatalf("after Reset: %d profile calls, want %d", n, 2*grid)
	}
}

// TestProfileMemoZeroAlloc: the memoised encode keeps EncodeInto's
// no-allocation contract once its means buffer has grown.
func TestProfileMemoZeroAlloc(t *testing.T) {
	var calls int
	c := memoCase("alloc", 21, memoTasks("alloc", 4, &calls))
	var memo ProfileMemo
	dst := make([]float64, NumFeatures())
	if allocs := testing.AllocsPerRun(50, func() {
		memo.Reset()
		if err := memo.EncodeInto(c, 1800, dst); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("memoised encode allocates %.1f/op, want 0", allocs)
	}
}
