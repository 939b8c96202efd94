package vmm

import (
	"errors"
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

func TestVMLifecycleHappyPath(t *testing.T) {
	vm := mustVM(t, "v1", 2, 4)
	if vm.State() != VMPending {
		t.Fatalf("initial state = %v", vm.State())
	}
	if err := vm.Start(10); err != nil {
		t.Fatal(err)
	}
	if err := vm.BeginMigration(20); err != nil {
		t.Fatal(err)
	}
	if err := vm.CompleteMigration(30); err != nil {
		t.Fatal(err)
	}
	if err := vm.Stop(40); err != nil {
		t.Fatal(err)
	}
	log := vm.Log()
	if len(log) != 4 {
		t.Fatalf("log has %d entries, want 4", len(log))
	}
	wantTimes := []float64{10, 20, 30, 40}
	for i, tr := range log {
		if tr.At != wantTimes[i] {
			t.Errorf("log[%d].At = %v, want %v", i, tr.At, wantTimes[i])
		}
	}
	if log[3].To != VMStopped {
		t.Errorf("final transition to %v", log[3].To)
	}
}

func TestVMInvalidTransitions(t *testing.T) {
	vm := mustVM(t, "v1", 1, 1)
	if err := vm.BeginMigration(0); !errors.Is(err, ErrInvalidTransition) {
		t.Errorf("pending->migrating err = %v", err)
	}
	if err := vm.CompleteMigration(0); !errors.Is(err, ErrInvalidTransition) {
		t.Errorf("pending->complete err = %v", err)
	}
	if err := vm.Start(0); err != nil {
		t.Fatal(err)
	}
	if err := vm.Start(1); !errors.Is(err, ErrInvalidTransition) {
		t.Errorf("double start err = %v", err)
	}
	if err := vm.Stop(2); err != nil {
		t.Fatal(err)
	}
	if err := vm.Stop(3); !errors.Is(err, ErrInvalidTransition) {
		t.Errorf("double stop err = %v", err)
	}
}

func TestVMStateStrings(t *testing.T) {
	want := map[VMState]string{
		VMPending:   "pending",
		VMRunning:   "running",
		VMMigrating: "migrating",
		VMStopped:   "stopped",
		VMState(9):  "VMState(9)",
	}
	for s, str := range want {
		if s.String() != str {
			t.Errorf("String(%d) = %q, want %q", int(s), s.String(), str)
		}
	}
}

func TestAddRemoveTasks(t *testing.T) {
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
	if err := vm.RemoveTask("a"); err != nil {
		t.Fatal(err)
	}
	if err := vm.RemoveTask("a"); err == nil {
		t.Error("removing absent task should fail")
	}
	if vm.NumTasks() != 1 {
		t.Fatalf("NumTasks after remove = %d", vm.NumTasks())
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
	for want, id := range []string{"t", "u", "w"} {
		if i, err := vm.TaskIndex(id); err != nil || i != want {
			t.Fatalf("TaskIndex(%q) = %d, %v; want %d", id, i, err, want)
		}
	}
	if _, err := vm.TaskIndex("missing"); err == nil {
		t.Error("unknown task id should fail")
	}
	u, _ := vm.TaskIndex("u")
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
	// RemoveTask shifts the tasks behind it: TaskIndex follows.
	if err := vm.RemoveTask("t"); err != nil {
		t.Fatal(err)
	}
	if i, err := vm.TaskIndex("w"); err != nil || i != 1 {
		t.Errorf("TaskIndex(w) after removing t = %d, %v; want 1", i, err)
	}
}

func TestClassMix(t *testing.T) {
	vm := mustVM(t, "v1", 8, 16)
	if len(vm.ClassMix()) != 0 {
		t.Error("empty VM should have empty mix")
	}
	specs := []Task{
		{ID: "1", Class: CPUBound, CPUFraction: 0.5},
		{ID: "2", Class: CPUBound, CPUFraction: 0.5},
		{ID: "3", Class: MemBound, CPUFraction: 0.5},
		{ID: "4", Class: IOBound, CPUFraction: 0.5},
	}
	for _, s := range specs {
		if err := vm.AddTask(s); err != nil {
			t.Fatal(err)
		}
	}
	mix := vm.ClassMix()
	if mix[CPUBound] != 0.5 || mix[MemBound] != 0.25 || mix[IOBound] != 0.25 {
		t.Errorf("mix = %v", mix)
	}
	if mix[Bursty] != 0 {
		t.Errorf("bursty mix = %v, want 0", mix[Bursty])
	}
}
