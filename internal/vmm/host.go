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

// MigrationCPUOverhead is the extra CPU demand fraction a migrating VM adds
// on its source host (dirty-page tracking and transfer threads).
const MigrationCPUOverhead = 0.10

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
	// incoming marks VMs whose capacity is reserved here while they still
	// execute on a migration source; they hold capacity but burn no CPU.
	incoming map[string]bool
}

// NewHost creates an empty host.
func NewHost(id string, config HostConfig) (*Host, error) {
	if id == "" {
		return nil, errors.New("vmm: host missing id")
	}
	if err := config.Validate(); err != nil {
		return nil, err
	}
	return &Host{
		id:       id,
		config:   config,
		vms:      make(map[string]*VM),
		incoming: make(map[string]bool),
	}, nil
}

// ID returns the host identifier.
func (h *Host) ID() string { return h.id }

// Config returns the host capacity configuration.
func (h *Host) Config() HostConfig { return h.config }

// Place admits a VM onto the host, enforcing vCPU-overcommit and memory
// capacity. The VM keeps its lifecycle state; placement is orthogonal to
// running.
func (h *Host) Place(vm *VM) error {
	if vm == nil {
		return errors.New("vmm: nil vm")
	}
	if _, ok := h.vms[vm.ID()]; ok {
		return fmt.Errorf("vmm: vm %q already on host %q", vm.ID(), h.id)
	}
	vcpus := float64(vm.Config().VCPUs)
	mem := vm.Config().MemoryGB
	if h.PlacedVCPUs()+vcpus > float64(h.config.Cores)*h.config.CPUOvercommit {
		return fmt.Errorf("%w: %v vCPUs over limit on %q", ErrCapacity, vcpus, h.id)
	}
	if h.PlacedMemGB()+mem > h.config.MemoryGB {
		return fmt.Errorf("%w: %v GB over limit on %q", ErrCapacity, mem, h.id)
	}
	h.vms[vm.ID()] = vm
	h.list = append(h.list, vm)
	return nil
}

// PlaceIncoming reserves capacity for a VM migrating in: it holds vCPU and
// memory budget but contributes no load until ConfirmIncoming.
func (h *Host) PlaceIncoming(vm *VM) error {
	if err := h.Place(vm); err != nil {
		return err
	}
	h.incoming[vm.ID()] = true
	return nil
}

// ConfirmIncoming completes an inbound migration: the VM starts counting
// toward utilization on this host.
func (h *Host) ConfirmIncoming(vmID string) error {
	if !h.incoming[vmID] {
		return fmt.Errorf("vmm: vm %q has no inbound reservation on %q", vmID, h.id)
	}
	delete(h.incoming, vmID)
	return nil
}

// Remove evicts a VM from the host (it keeps running elsewhere or stops; the
// caller decides). Inbound reservations are released too.
func (h *Host) Remove(vmID string) error {
	if _, ok := h.vms[vmID]; !ok {
		return fmt.Errorf("vmm: no vm %q on host %q", vmID, h.id)
	}
	delete(h.vms, vmID)
	delete(h.incoming, vmID)
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

// Utilization returns current physical CPU utilization in [0, 1]: the sum of
// running VMs' demands (plus migration overhead) over physical cores.
func (h *Host) Utilization() float64 {
	var demand float64
	for _, vm := range h.list {
		if len(h.incoming) > 0 && h.incoming[vm.ID()] {
			continue // reserved only; executing on the migration source
		}
		switch vm.State() {
		case VMRunning:
			demand += vm.CPUDemandVCPUs()
		case VMMigrating:
			demand += vm.CPUDemandVCPUs() * (1 + MigrationCPUOverhead)
		default:
			// pending and stopped VMs consume no CPU
		}
	}
	return min(demand/float64(h.config.Cores), 1)
}

// Loads returns Utilization and MemActiveFrac from one walk over the placed
// VMs. The fleet tick loop reads both per host per simulation step; the
// combined sweep halves that cost at datacenter scale. The accumulation
// order matches the individual methods exactly, so the results are
// bit-identical to calling them separately.
func (h *Host) Loads() (util, memFrac float64) {
	var demand, used float64
	for _, vm := range h.list {
		if len(h.incoming) > 0 && h.incoming[vm.ID()] {
			continue // reserved only; executing on the migration source
		}
		switch vm.State() {
		case VMRunning:
			demand += vm.CPUDemandVCPUs()
			used += vm.MemUsedGB()
		case VMMigrating:
			demand += vm.CPUDemandVCPUs() * (1 + MigrationCPUOverhead)
			used += vm.MemUsedGB()
		default:
			// pending and stopped VMs consume no CPU or active memory
		}
	}
	return min(demand/float64(h.config.Cores), 1),
		min(used/h.config.MemoryGB, 1)
}

// MemActiveFrac returns the fraction of host memory actively used by
// running or migrating VMs, in [0, 1].
func (h *Host) MemActiveFrac() float64 {
	var used float64
	for _, vm := range h.list {
		if len(h.incoming) > 0 && h.incoming[vm.ID()] {
			continue
		}
		if st := vm.State(); st == VMRunning || st == VMMigrating {
			used += vm.MemUsedGB()
		}
	}
	return min(used/h.config.MemoryGB, 1)
}
