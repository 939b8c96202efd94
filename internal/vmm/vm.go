package vmm

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// VMConfig is the user-requested shape of a VM.
type VMConfig struct {
	// VCPUs is the virtual CPU count.
	VCPUs int
	// MemoryGB is the allocated guest memory.
	MemoryGB float64
}

// Validate checks the configuration.
func (c VMConfig) Validate() error {
	if c.VCPUs < 1 {
		return fmt.Errorf("vmm: vcpus must be >= 1, got %d", c.VCPUs)
	}
	if c.MemoryGB <= 0 {
		return fmt.Errorf("vmm: memory must be > 0, got %v", c.MemoryGB)
	}
	return nil
}

// VM is a virtual machine instance: a config and a set of deployed tasks.
// A VM placed on a host runs there.
//
// Tasks live in an insertion-ordered slice with a side set of their ids:
// the hot loops of fleet simulation (per-tick demand updates and
// utilization sums) scan a handful of contiguous structs instead of paying
// randomized map iteration per call, and iteration order is deterministic.
//
// The VM keeps its tasks' CPU and memory sums: AddTask and SetTaskCPU
// (only when the fraction's bits change) re-add every task in
// deployment order, so CPUDemandVCPUs and MemUsedGB return the bits a
// fresh loop would without walking the tasks. The getters only read, so
// concurrent readers need no more than they did before.
type VM struct {
	id      string
	config  VMConfig
	tasks   []Task
	taskIDs map[string]struct{} // ids in tasks, for AddTask's duplicate check
	cpuSum  float64             // Σ CPUFraction over tasks, uncapped; see resum
	memSum  float64             // Σ MemGB over tasks, uncapped
}

// NewVM creates a VM with no tasks.
func NewVM(id string, config VMConfig) (*VM, error) {
	if id == "" {
		return nil, errors.New("vmm: vm missing id")
	}
	if err := config.Validate(); err != nil {
		return nil, err
	}
	return &VM{id: id, config: config, taskIDs: make(map[string]struct{})}, nil
}

// ID returns the VM identifier.
func (v *VM) ID() string { return v.id }

// Config returns the VM's configuration.
func (v *VM) Config() VMConfig { return v.config }

// AddTask deploys a task into the VM. Task IDs must be unique per VM.
func (v *VM) AddTask(t Task) error {
	if err := t.Validate(); err != nil {
		return err
	}
	if _, ok := v.taskIDs[t.ID]; ok {
		return fmt.Errorf("vmm: duplicate task %q in vm %q", t.ID, v.id)
	}
	v.taskIDs[t.ID] = struct{}{}
	v.tasks = append(v.tasks, t)
	v.resum()
	return nil
}

// resum recomputes the kept CPU and memory sums over the tasks in
// deployment order, the order every reader has always summed in.
func (v *VM) resum() {
	var cpu, mem float64
	for i := range v.tasks {
		cpu += v.tasks[i].CPUFraction
		mem += v.tasks[i].MemGB
	}
	v.cpuSum, v.memSum = cpu, mem
}

// SetTaskCPU updates the current CPU demand fraction of the i-th deployed
// task (deployment order, see TaskAt); the workload generator calls this
// every tick to realize dynamic load profiles, so callers resolve the index
// once when they register the task.
func (v *VM) SetTaskCPU(i int, fraction float64) error {
	if i < 0 || i >= len(v.tasks) {
		return fmt.Errorf("vmm: no task %d in vm %q (%d tasks)", i, v.id, len(v.tasks))
	}
	if fraction < 0 || fraction > 1 {
		return fmt.Errorf("vmm: cpu fraction %v outside [0,1]", fraction)
	}
	if math.Float64bits(v.tasks[i].CPUFraction) != math.Float64bits(fraction) {
		v.tasks[i].CPUFraction = fraction
		v.resum()
	}
	return nil
}

// Tasks returns the deployed tasks sorted by ID (deterministic iteration).
func (v *VM) Tasks() []Task {
	out := make([]Task, len(v.tasks))
	copy(out, v.tasks)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// NumTasks returns the deployed task count.
func (v *VM) NumTasks() int { return len(v.tasks) }

// TaskAt returns the i-th deployed task in deployment order (0 ≤ i <
// NumTasks). Like Host.VMAt it allocates nothing — the iteration primitive
// for callers that build their own ordered view of a deployment.
func (v *VM) TaskAt(i int) Task { return v.tasks[i] }

// CPUDemandVCPUs returns the VM's current CPU demand in vCPU units, capped
// at the configured vCPU count (a VM cannot use more than it was given).
func (v *VM) CPUDemandVCPUs() float64 {
	return min(v.cpuSum, float64(v.config.VCPUs))
}

// TaskCPUStats returns the raw (uncapped) sum and maximum of the VM's task
// CPU fractions without allocating. Together with the VM's identity these
// determine every CPU-load feature the Eq. (2) encoder derives from a
// deployment snapshot — the anchor cache folds them into its deployment
// fingerprint so a load redistribution (same total, different tasks) is a
// different key.
func (v *VM) TaskCPUStats() (sum, maxFraction float64) {
	for i := range v.tasks {
		f := v.tasks[i].CPUFraction
		sum += f
		if f > maxFraction {
			maxFraction = f
		}
	}
	return sum, maxFraction
}

// MemUsedGB returns active memory, capped at the allocation.
func (v *VM) MemUsedGB() float64 {
	return min(v.memSum, v.config.MemoryGB)
}
