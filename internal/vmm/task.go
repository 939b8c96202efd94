// Package vmm models the virtualization substrate the paper's predictor
// observes through the Virtual Machine Manager: heterogeneous tasks deployed
// in VMs, host capacity accounting and load sums, and the duration of a
// live migration's pre-copy rounds.
//
// The paper's central argument is that task-temperature and RC baselines
// assume one homogeneous task per server, while clouds run many VMs with
// heterogeneous resource profiles that change at runtime (migration). This
// package provides exactly that heterogeneity and dynamism.
package vmm

import (
	"errors"
	"fmt"
)

// TaskClass labels a task's dominant resource profile. Class frequencies in
// an experiment are part of the ξ_VM feature encoding.
type TaskClass int

// Task classes.
const (
	// CPUBound tasks run hot: high sustained CPU, little memory traffic.
	CPUBound TaskClass = iota + 1
	// MemBound tasks stress DRAM: moderate CPU, high memory activity.
	MemBound
	// IOBound tasks mostly wait: low CPU, low memory.
	IOBound
	// Bursty tasks alternate between hot and idle phases.
	Bursty
)

// String implements fmt.Stringer.
func (c TaskClass) String() string {
	switch c {
	case CPUBound:
		return "cpu-bound"
	case MemBound:
		return "mem-bound"
	case IOBound:
		return "io-bound"
	case Bursty:
		return "bursty"
	default:
		return fmt.Sprintf("TaskClass(%d)", int(c))
	}
}

// TaskClasses lists all valid classes, for iteration in feature encoders.
func TaskClasses() []TaskClass {
	return []TaskClass{CPUBound, MemBound, IOBound, Bursty}
}

// Task is one deployed workload inside a VM.
type Task struct {
	// ID uniquely names the task within its VM.
	ID string
	// Class is the dominant resource profile.
	Class TaskClass
	// CPUFraction is the task's current demand as a fraction of one vCPU
	// (0..1). The workload generator updates it over time for dynamic
	// profiles.
	CPUFraction float64
	// MemGB is resident memory actively touched by the task.
	MemGB float64
}

// Validate checks task fields.
func (t Task) Validate() error {
	if t.ID == "" {
		return errors.New("vmm: task missing id")
	}
	switch t.Class {
	case CPUBound, MemBound, IOBound, Bursty:
	default:
		return fmt.Errorf("vmm: task %s has invalid class %d", t.ID, int(t.Class))
	}
	if t.CPUFraction < 0 || t.CPUFraction > 1 {
		return fmt.Errorf("vmm: task %s cpu fraction %v outside [0,1]", t.ID, t.CPUFraction)
	}
	if t.MemGB < 0 {
		return fmt.Errorf("vmm: task %s negative memory %v", t.ID, t.MemGB)
	}
	return nil
}
