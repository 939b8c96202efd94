package vmm

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// VMState is a VM lifecycle state.
type VMState int

// VM lifecycle states.
const (
	VMPending VMState = iota + 1
	VMRunning
	VMMigrating
	VMStopped
)

// String implements fmt.Stringer.
func (s VMState) String() string {
	switch s {
	case VMPending:
		return "pending"
	case VMRunning:
		return "running"
	case VMMigrating:
		return "migrating"
	case VMStopped:
		return "stopped"
	default:
		return fmt.Sprintf("VMState(%d)", int(s))
	}
}

// ErrInvalidTransition is returned for illegal lifecycle transitions.
var ErrInvalidTransition = errors.New("vmm: invalid state transition")

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

// Transition is one audit-log entry of a VM lifecycle change.
type Transition struct {
	At   float64 // simulation time, seconds
	From VMState
	To   VMState
}

// VM is a virtual machine instance: a config, a set of deployed tasks, and a
// lifecycle state with an audit trail.
//
// Tasks live in an insertion-ordered slice with a side index: the hot loops
// of fleet simulation (per-tick demand updates and utilization sums) scan a
// handful of contiguous structs instead of paying randomized map iteration
// per call, and iteration order is deterministic.
type VM struct {
	id      string
	config  VMConfig
	state   VMState
	tasks   []Task
	taskIdx map[string]int // task id → index into tasks
	log     []Transition
}

// NewVM creates a VM in the pending state.
func NewVM(id string, config VMConfig) (*VM, error) {
	if id == "" {
		return nil, errors.New("vmm: vm missing id")
	}
	if err := config.Validate(); err != nil {
		return nil, err
	}
	return &VM{
		id:      id,
		config:  config,
		state:   VMPending,
		taskIdx: make(map[string]int),
	}, nil
}

// ID returns the VM identifier.
func (v *VM) ID() string { return v.id }

// Config returns the VM's configuration.
func (v *VM) Config() VMConfig { return v.config }

// State returns the current lifecycle state.
func (v *VM) State() VMState { return v.state }

// Log returns a copy of the transition audit trail.
func (v *VM) Log() []Transition {
	out := make([]Transition, len(v.log))
	copy(out, v.log)
	return out
}

// transition enforces the lifecycle FSM.
func (v *VM) transition(now float64, to VMState, allowedFrom ...VMState) error {
	for _, from := range allowedFrom {
		if v.state == from {
			v.log = append(v.log, Transition{At: now, From: v.state, To: to})
			v.state = to
			return nil
		}
	}
	return fmt.Errorf("%w: %s -> %s", ErrInvalidTransition, v.state, to)
}

// Start moves Pending → Running.
func (v *VM) Start(now float64) error {
	return v.transition(now, VMRunning, VMPending)
}

// BeginMigration moves Running → Migrating.
func (v *VM) BeginMigration(now float64) error {
	return v.transition(now, VMMigrating, VMRunning)
}

// CompleteMigration moves Migrating → Running.
func (v *VM) CompleteMigration(now float64) error {
	return v.transition(now, VMRunning, VMMigrating)
}

// AbortMigration moves Migrating → Running (stays on source).
func (v *VM) AbortMigration(now float64) error {
	return v.transition(now, VMRunning, VMMigrating)
}

// Stop moves Pending or Running → Stopped.
func (v *VM) Stop(now float64) error {
	return v.transition(now, VMStopped, VMPending, VMRunning)
}

// AddTask deploys a task into the VM. Task IDs must be unique per VM.
func (v *VM) AddTask(t Task) error {
	if err := t.Validate(); err != nil {
		return err
	}
	if _, ok := v.taskIdx[t.ID]; ok {
		return fmt.Errorf("vmm: duplicate task %q in vm %q", t.ID, v.id)
	}
	v.taskIdx[t.ID] = len(v.tasks)
	v.tasks = append(v.tasks, t)
	return nil
}

// RemoveTask undeploys a task.
func (v *VM) RemoveTask(id string) error {
	idx, ok := v.taskIdx[id]
	if !ok {
		return fmt.Errorf("vmm: no task %q in vm %q", id, v.id)
	}
	v.tasks = append(v.tasks[:idx], v.tasks[idx+1:]...)
	delete(v.taskIdx, id)
	for i := idx; i < len(v.tasks); i++ {
		v.taskIdx[v.tasks[i].ID] = i
	}
	return nil
}

// SetTaskCPU updates a task's current CPU demand fraction; the workload
// generator calls this to realize dynamic load profiles.
func (v *VM) SetTaskCPU(id string, fraction float64) error {
	idx, ok := v.taskIdx[id]
	if !ok {
		return fmt.Errorf("vmm: no task %q in vm %q", id, v.id)
	}
	if fraction < 0 || fraction > 1 {
		return fmt.Errorf("vmm: cpu fraction %v outside [0,1]", fraction)
	}
	v.tasks[idx].CPUFraction = fraction
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
	var sum float64
	for i := range v.tasks {
		sum += v.tasks[i].CPUFraction
	}
	return math.Min(sum, float64(v.config.VCPUs))
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
	var sum float64
	for i := range v.tasks {
		sum += v.tasks[i].MemGB
	}
	return math.Min(sum, v.config.MemoryGB)
}

// ClassMix returns the fraction of tasks per class (zero map for no tasks).
func (v *VM) ClassMix() map[TaskClass]float64 {
	mix := make(map[TaskClass]float64, 4)
	if len(v.tasks) == 0 {
		return mix
	}
	for i := range v.tasks {
		mix[v.tasks[i].Class]++
	}
	for c := range mix {
		mix[c] /= float64(len(v.tasks))
	}
	return mix
}
