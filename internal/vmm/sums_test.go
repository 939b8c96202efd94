package vmm

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
)

// loopSums is what CPUDemandVCPUs and MemUsedGB computed before the VM kept
// its sums: a walk over the tasks in deployment order, then the caps.
func loopSums(v *VM) (cpu, mem float64) {
	for i := 0; i < v.NumTasks(); i++ {
		cpu += v.TaskAt(i).CPUFraction
		mem += v.TaskAt(i).MemGB
	}
	return min(cpu, float64(v.Config().VCPUs)), min(mem, v.Config().MemoryGB)
}

// sumValues are the fractions and memory sizes the sequences draw from:
// both zeros, subnormals, the smallest normal, 1.0 and values whose sums
// round.
var sumValues = []float64{
	0, math.Copysign(0, -1), 5e-324, 3 * 5e-324, 2.2250738585072014e-308,
	1, 0.1, 0.2, 0.3, 1.0 / 3, 0.7, 0.9999999999999999,
}

// TestKeptSumsMatchLoops: after every step of random AddTask and SetTaskCPU
// sequences, the VM's demand and memory equal the explicit loops bit for
// bit, capped or not.
func TestKeptSumsMatchLoops(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		vm := mustVM(t, "v", 1+rng.Intn(4), []float64{0.5, 2, 1e3}[rng.Intn(3)])
		for step := 0; step < 60; step++ {
			switch op := rng.Intn(4); {
			case op == 0 || vm.NumTasks() == 0:
				task := Task{ID: fmt.Sprintf("t%d", step), Class: CPUBound,
					CPUFraction: sumValues[rng.Intn(len(sumValues))], MemGB: sumValues[rng.Intn(len(sumValues))]}
				if err := vm.AddTask(task); err != nil {
					t.Fatal(err)
				}
			default:
				if err := vm.SetTaskCPU(rng.Intn(vm.NumTasks()), sumValues[rng.Intn(len(sumValues))]); err != nil {
					t.Fatal(err)
				}
			}
			cpu, mem := loopSums(vm)
			if got := vm.CPUDemandVCPUs(); math.Float64bits(got) != math.Float64bits(cpu) {
				t.Fatalf("seed %d step %d: CPUDemandVCPUs %v (%#x), loop %v (%#x)",
					seed, step, got, math.Float64bits(got), cpu, math.Float64bits(cpu))
			}
			if got := vm.MemUsedGB(); math.Float64bits(got) != math.Float64bits(mem) {
				t.Fatalf("seed %d step %d: MemUsedGB %v, loop %v", seed, step, got, mem)
			}
		}
	}
}

// TestLoadGettersAreReadOnly reads one host's VMs from several goroutines at
// once, as substrate shards and the controller do; under -race a getter
// that writes (a lazily filled memo) is a reported race.
func TestLoadGettersAreReadOnly(t *testing.T) {
	h := mustHost(t, "h")
	for v := 0; v < 4; v++ {
		vm := mustVM(t, fmt.Sprintf("vm%d", v), 2, 4)
		for k := 0; k < 3; k++ {
			if err := vm.AddTask(Task{ID: fmt.Sprintf("t%d", k), Class: CPUBound, CPUFraction: 0.1 * float64(v+k), MemGB: 0.5}); err != nil {
				t.Fatal(err)
			}
		}
		if err := h.Place(vm); err != nil {
			t.Fatal(err)
		}
	}
	// No getter runs before the readers start: a memo the first call fills
	// would otherwise be warm by then.
	type loads struct{ util, mem, cpu, used float64 }
	got := make([]loads, 4)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				var l loads
				for k := 0; k < h.NumVMs(); k++ {
					l.cpu += h.VMAt(k).CPUDemandVCPUs()
					l.used += h.VMAt(k).MemUsedGB()
				}
				l.util, l.mem = h.Loads()
				got[g] = l
			}
		}()
	}
	wg.Wait()
	var want loads
	for k := 0; k < h.NumVMs(); k++ {
		cpu, mem := loopSums(h.VMAt(k))
		want.cpu += cpu
		want.used += mem
	}
	want.util, want.mem = min(want.cpu/float64(h.Config().Cores), 1), min(want.used/h.Config().MemoryGB, 1)
	for g, l := range got {
		if l != want {
			t.Errorf("reader %d saw %+v, want %+v", g, l, want)
		}
	}
}
