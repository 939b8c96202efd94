package vmm

import (
	"errors"
	"fmt"
	"sort"
)

// HostConfig describes a physical server's capacity: the paper's θ_cpu and
// θ_memory features derive from it.
type HostConfig struct {
	// Cores is the physical core count.
	Cores int
	// GHzPerCore is the nominal per-core clock.
	GHzPerCore float64
	// MemoryGB is installed RAM.
	MemoryGB float64
	// CPUOvercommit allows placing more vCPUs than cores (1.0 = none).
	CPUOvercommit float64
}

// DefaultHostConfig returns a 16-core 2.6 GHz, 64 GB host with mild
// overcommit, the reference shape for experiments.
func DefaultHostConfig() HostConfig {
	return HostConfig{Cores: 16, GHzPerCore: 2.6, MemoryGB: 64, CPUOvercommit: 1.5}
}

// Validate checks capacity sanity.
func (c HostConfig) Validate() error {
	if c.Cores < 1 {
		return fmt.Errorf("vmm: cores must be >= 1, got %d", c.Cores)
	}
	if c.GHzPerCore <= 0 {
		return fmt.Errorf("vmm: GHz per core must be > 0, got %v", c.GHzPerCore)
	}
	if c.MemoryGB <= 0 {
		return fmt.Errorf("vmm: memory must be > 0, got %v", c.MemoryGB)
	}
	if c.CPUOvercommit < 1 {
		return fmt.Errorf("vmm: overcommit must be >= 1, got %v", c.CPUOvercommit)
	}
	return nil
}

// CPUCapacityGHz is total compute capacity (θ_cpu).
func (c HostConfig) CPUCapacityGHz() float64 {
	return float64(c.Cores) * c.GHzPerCore
}

// ErrCapacity is returned when a placement would exceed host capacity.
var ErrCapacity = errors.New("vmm: placement exceeds host capacity")

// Host is one physical server hosting VMs.
//
// Placed VMs are kept both in a lookup map and an insertion-ordered slice:
// utilization and capacity sums — called per host per simulation tick at
// fleet scale — walk the slice, avoiding randomized map iteration on the
// hot path.
type Host struct {
	id     string
	config HostConfig
	vms    map[string]*VM
	list   []*VM // placement order; parallel to vms
}

// NewHost creates an empty host.
func NewHost(id string, config HostConfig) (*Host, error) {
	if id == "" {
		return nil, errors.New("vmm: host missing id")
	}
	if err := config.Validate(); err != nil {
		return nil, err
	}
	return &Host{id: id, config: config, vms: make(map[string]*VM)}, nil
}

// ID returns the host identifier.
func (h *Host) ID() string { return h.id }

// Config returns the host capacity configuration.
func (h *Host) Config() HostConfig { return h.config }

// CanAdmit reports whether a VM of shape cfg fits the host's vCPU budget
// (cores × overcommit) and its memory beside the VMs already placed. It is
// the one capacity rule: Place enforces it, and placement policies rank only
// the hosts it admits.
func (h *Host) CanAdmit(cfg VMConfig) bool {
	return h.PlacedVCPUs()+float64(cfg.VCPUs) <= float64(h.config.Cores)*h.config.CPUOvercommit &&
		h.PlacedMemGB()+cfg.MemoryGB <= h.config.MemoryGB
}

// Place admits a VM onto the host if CanAdmit allows its shape. A placed VM
// runs: its tasks count toward Loads from now on.
func (h *Host) Place(vm *VM) error {
	if vm == nil {
		return errors.New("vmm: nil vm")
	}
	if _, ok := h.vms[vm.ID()]; ok {
		return fmt.Errorf("vmm: vm %q already on host %q", vm.ID(), h.id)
	}
	if cfg := vm.Config(); !h.CanAdmit(cfg) {
		return fmt.Errorf("%w: vm %q (%d vCPUs, %v GB) does not fit on %q", ErrCapacity, vm.ID(), cfg.VCPUs, cfg.MemoryGB, h.id)
	}
	h.vms[vm.ID()] = vm
	h.list = append(h.list, vm)
	return nil
}

// Remove evicts a VM from the host (it keeps running elsewhere or stops; the
// caller decides).
func (h *Host) Remove(vmID string) error {
	if _, ok := h.vms[vmID]; !ok {
		return fmt.Errorf("vmm: no vm %q on host %q", vmID, h.id)
	}
	delete(h.vms, vmID)
	for i, vm := range h.list {
		if vm.ID() == vmID {
			h.list = append(h.list[:i], h.list[i+1:]...)
			break
		}
	}
	return nil
}

// VM returns a placed VM by id.
func (h *Host) VM(id string) (*VM, error) {
	vm, ok := h.vms[id]
	if !ok {
		return nil, fmt.Errorf("vmm: no vm %q on host %q", id, h.id)
	}
	return vm, nil
}

// VMs returns placed VMs sorted by ID.
func (h *Host) VMs() []*VM {
	out := make([]*VM, len(h.list))
	copy(out, h.list)
	sort.Slice(out, func(i, j int) bool { return out[i].ID() < out[j].ID() })
	return out
}

// VMAt returns the i-th placed VM in placement order (0 ≤ i < NumVMs). It
// allocates nothing — the iteration primitive for per-tick fleet loops and
// anchor-cache deployment fingerprinting.
func (h *Host) VMAt(i int) *VM { return h.list[i] }

// NumVMs returns the placed VM count.
func (h *Host) NumVMs() int { return len(h.vms) }

// Idle reports whether the host runs no task: it holds no VM, or only VMs
// without tasks. Its load is zero either way.
func (h *Host) Idle() bool {
	for _, vm := range h.list {
		if len(vm.tasks) > 0 {
			return false
		}
	}
	return true
}

// PlacedVCPUs sums configured vCPUs across placed VMs.
func (h *Host) PlacedVCPUs() float64 {
	var sum float64
	for _, vm := range h.list {
		sum += float64(vm.Config().VCPUs)
	}
	return sum
}

// PlacedMemGB sums configured memory across placed VMs.
func (h *Host) PlacedMemGB() float64 {
	var sum float64
	for _, vm := range h.list {
		sum += vm.Config().MemoryGB
	}
	return sum
}

// Loads returns the host's CPU utilization and active-memory fraction, both
// in [0, 1], from one walk over the placed VMs in placement order: their CPU
// demand over the physical cores, and their active memory over installed
// RAM.
func (h *Host) Loads() (util, memFrac float64) {
	var demand, used float64
	for _, vm := range h.list {
		demand += vm.CPUDemandVCPUs()
		used += vm.MemUsedGB()
	}
	return min(demand/float64(h.config.Cores), 1),
		min(used/h.config.MemoryGB, 1)
}
