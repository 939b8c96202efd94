package vmm

import (
	"errors"
	"fmt"
	"math"
	"testing"
)

func mustHost(t *testing.T, id string) *Host {
	t.Helper()
	h, err := NewHost(id, DefaultHostConfig())
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestHostConfigValidate(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*HostConfig)
		ok     bool
	}{
		{"default", func(*HostConfig) {}, true},
		{"zero cores", func(c *HostConfig) { c.Cores = 0 }, false},
		{"zero ghz", func(c *HostConfig) { c.GHzPerCore = 0 }, false},
		{"zero mem", func(c *HostConfig) { c.MemoryGB = 0 }, false},
		{"undercommit", func(c *HostConfig) { c.CPUOvercommit = 0.5 }, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			c := DefaultHostConfig()
			tt.mutate(&c)
			err := c.Validate()
			if (err == nil) != tt.ok {
				t.Errorf("Validate = %v, ok %v", err, tt.ok)
			}
		})
	}
}

func TestCPUCapacityGHz(t *testing.T) {
	c := HostConfig{Cores: 16, GHzPerCore: 2.5, MemoryGB: 64, CPUOvercommit: 1}
	if got := c.CPUCapacityGHz(); got != 40 {
		t.Errorf("capacity = %v, want 40", got)
	}
}

func TestNewHostValidation(t *testing.T) {
	if _, err := NewHost("", DefaultHostConfig()); err == nil {
		t.Error("empty id should fail")
	}
	if _, err := NewHost("h", HostConfig{}); err == nil {
		t.Error("invalid config should fail")
	}
}

func TestPlaceAndCapacity(t *testing.T) {
	h := mustHost(t, "h1") // 16 cores, overcommit 1.5 → 24 vCPUs; 64 GB
	if err := h.Place(nil); err == nil {
		t.Error("nil vm should fail")
	}
	v1 := mustVM(t, "v1", 16, 32)
	if err := h.Place(v1); err != nil {
		t.Fatal(err)
	}
	if err := h.Place(v1); err == nil {
		t.Error("double placement should fail")
	}
	// 16 + 16 = 32 vCPUs > 24 limit.
	if h.CanAdmit(VMConfig{VCPUs: 16, MemoryGB: 16}) || !h.CanAdmit(VMConfig{VCPUs: 8, MemoryGB: 32}) {
		t.Error("CanAdmit disagrees with the 24 vCPU / 64 GB budgets")
	}
	if err := h.Place(mustVM(t, "v2", 16, 16)); !errors.Is(err, ErrCapacity) {
		t.Errorf("vcpu overflow err = %v, want ErrCapacity", err)
	}
	// Memory: 32 + 48 = 80 > 64.
	if err := h.Place(mustVM(t, "v3", 4, 48)); !errors.Is(err, ErrCapacity) {
		t.Errorf("memory overflow err = %v, want ErrCapacity", err)
	}
	// Fits both budgets.
	if err := h.Place(mustVM(t, "v4", 8, 16)); err != nil {
		t.Errorf("valid placement failed: %v", err)
	}
	if h.NumVMs() != 2 {
		t.Errorf("NumVMs = %d, want 2", h.NumVMs())
	}
	if h.PlacedVCPUs() != 24 || h.PlacedMemGB() != 48 {
		t.Errorf("placed = %v vCPU / %v GB", h.PlacedVCPUs(), h.PlacedMemGB())
	}
}

func TestRemove(t *testing.T) {
	h := mustHost(t, "h1")
	vm := mustVM(t, "v1", 2, 4)
	if err := h.Place(vm); err != nil {
		t.Fatal(err)
	}
	if err := h.Remove("v1"); err != nil {
		t.Fatal(err)
	}
	if err := h.Remove("v1"); err == nil {
		t.Error("double remove should fail")
	}
	if h.NumVMs() != 0 {
		t.Error("host not empty after remove")
	}
}

func TestVMLookupAndOrdering(t *testing.T) {
	h := mustHost(t, "h1")
	for _, id := range []string{"vz", "va", "vm"} {
		if err := h.Place(mustVM(t, id, 1, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := h.VM("nope"); err == nil {
		t.Error("unknown vm should fail")
	}
	got, err := h.VM("va")
	if err != nil {
		t.Fatal(err)
	}
	if got.ID() != "va" {
		t.Errorf("VM lookup returned %q", got.ID())
	}
	vms := h.VMs()
	if vms[0].ID() != "va" || vms[1].ID() != "vm" || vms[2].ID() != "vz" {
		t.Error("VMs not sorted by id")
	}
}

// TestUtilizationAggregatesRunningVMs: Loads' utilization is every placed
// VM's CPU demand over the physical cores; a removed VM stops counting.
func TestUtilizationAggregatesRunningVMs(t *testing.T) {
	h := mustHost(t, "h1") // 16 cores
	if util, _ := h.Loads(); util != 0 {
		t.Errorf("empty host utilization = %v", util)
	}
	for i, frac := range []float64{1.0, 1.0, 0.5} {
		vm := mustVM(t, fmt.Sprintf("v%d", i+1), 4, 8)
		if err := vm.AddTask(Task{ID: "t", Class: CPUBound, CPUFraction: frac, MemGB: 2}); err != nil {
			t.Fatal(err)
		}
		if err := h.Place(vm); err != nil {
			t.Fatal(err)
		}
	}
	// 2.5 demand vCPUs / 16 cores.
	if util, _ := h.Loads(); math.Abs(util-2.5/16) > 1e-12 {
		t.Errorf("utilization = %v, want %v", util, 2.5/16)
	}
	if err := h.Remove("v2"); err != nil {
		t.Fatal(err)
	}
	if util, _ := h.Loads(); math.Abs(util-1.5/16) > 1e-12 {
		t.Errorf("utilization after removing v2 = %v, want %v", util, 1.5/16)
	}
}

func TestMemActiveFrac(t *testing.T) {
	h := mustHost(t, "h1") // 64 GB
	vm := mustVM(t, "v1", 4, 32)
	if err := vm.AddTask(Task{ID: "t", Class: MemBound, CPUFraction: 0.3, MemGB: 16}); err != nil {
		t.Fatal(err)
	}
	if err := h.Place(vm); err != nil {
		t.Fatal(err)
	}
	if _, mem := h.Loads(); math.Abs(mem-0.25) > 1e-12 {
		t.Errorf("Loads memory fraction = %v, want 0.25", mem)
	}
}
