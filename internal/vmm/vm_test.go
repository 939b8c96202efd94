package vmm

import (
	"math"
	"testing"
)

func mustVM(t *testing.T, id string, vcpus int, memGB float64) *VM {
	t.Helper()
	vm, err := NewVM(id, VMConfig{VCPUs: vcpus, MemoryGB: memGB})
	if err != nil {
		t.Fatal(err)
	}
	return vm
}

func TestNewVMValidation(t *testing.T) {
	if _, err := NewVM("", VMConfig{VCPUs: 1, MemoryGB: 1}); err == nil {
		t.Error("empty id should fail")
	}
	if _, err := NewVM("v", VMConfig{VCPUs: 0, MemoryGB: 1}); err == nil {
		t.Error("zero vcpus should fail")
	}
	if _, err := NewVM("v", VMConfig{VCPUs: 1, MemoryGB: 0}); err == nil {
		t.Error("zero memory should fail")
	}
}

func TestAddTasks(t *testing.T) {
	vm := mustVM(t, "v1", 4, 8)
	if err := vm.AddTask(Task{ID: "a", Class: CPUBound, CPUFraction: 0.9, MemGB: 1}); err != nil {
		t.Fatal(err)
	}
	if err := vm.AddTask(Task{ID: "a", Class: CPUBound, CPUFraction: 0.1}); err == nil {
		t.Error("duplicate task should fail")
	}
	if err := vm.AddTask(Task{ID: "", Class: CPUBound}); err == nil {
		t.Error("invalid task should fail")
	}
	if err := vm.AddTask(Task{ID: "b", Class: MemBound, CPUFraction: 0.3, MemGB: 4}); err != nil {
		t.Fatal(err)
	}
	if vm.NumTasks() != 2 {
		t.Fatalf("NumTasks = %d", vm.NumTasks())
	}
}

func TestTasksSortedDeterministically(t *testing.T) {
	vm := mustVM(t, "v1", 4, 8)
	for _, id := range []string{"zeta", "alpha", "mid"} {
		if err := vm.AddTask(Task{ID: id, Class: IOBound, CPUFraction: 0.1}); err != nil {
			t.Fatal(err)
		}
	}
	tasks := vm.Tasks()
	if tasks[0].ID != "alpha" || tasks[1].ID != "mid" || tasks[2].ID != "zeta" {
		t.Errorf("tasks not sorted: %v, %v, %v", tasks[0].ID, tasks[1].ID, tasks[2].ID)
	}
}

func TestCPUDemandCappedByVCPUs(t *testing.T) {
	vm := mustVM(t, "v1", 2, 8)
	for i, frac := range []float64{0.9, 0.8, 0.9} {
		if err := vm.AddTask(Task{ID: string(rune('a' + i)), Class: CPUBound, CPUFraction: frac}); err != nil {
			t.Fatal(err)
		}
	}
	// Raw sum 2.6 > 2 vCPUs.
	if got := vm.CPUDemandVCPUs(); got != 2 {
		t.Errorf("CPUDemandVCPUs = %v, want capped 2", got)
	}
}

func TestMemUsedCappedByAllocation(t *testing.T) {
	vm := mustVM(t, "v1", 2, 4)
	if err := vm.AddTask(Task{ID: "big", Class: MemBound, CPUFraction: 0.2, MemGB: 10}); err != nil {
		t.Fatal(err)
	}
	if got := vm.MemUsedGB(); got != 4 {
		t.Errorf("MemUsedGB = %v, want capped 4", got)
	}
}

func TestSetTaskCPU(t *testing.T) {
	vm := mustVM(t, "v1", 2, 4)
	for _, id := range []string{"t", "u", "w"} {
		if err := vm.AddTask(Task{ID: id, Class: Bursty, CPUFraction: 0.2}); err != nil {
			t.Fatal(err)
		}
	}
	const u = 1 // deployment order
	if err := vm.SetTaskCPU(u, 0.7); err != nil {
		t.Fatal(err)
	}
	if got := vm.TaskAt(u); got.ID != "u" || got.CPUFraction != 0.7 {
		t.Errorf("task %d after SetTaskCPU = %+v, want u at 0.7", u, got)
	}
	if got := vm.CPUDemandVCPUs(); math.Abs(got-1.1) > 1e-12 {
		t.Errorf("demand after SetTaskCPU = %v", got)
	}
	for _, i := range []int{-1, 3} {
		if err := vm.SetTaskCPU(i, 0.5); err == nil {
			t.Errorf("task index %d of 3 should fail", i)
		}
	}
	if err := vm.SetTaskCPU(u, 1.5); err == nil {
		t.Error("out-of-range fraction should fail")
	}
	if err := vm.SetTaskCPU(u, -0.1); err == nil {
		t.Error("negative fraction should fail")
	}
	if got := vm.TaskAt(u).CPUFraction; got != 0.7 {
		t.Errorf("a rejected fraction changed the task: %v", got)
	}
}
