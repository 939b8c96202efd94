package substrate

import (
	"fmt"
	"math"
	"testing"

	"vmtherm/internal/anchorcache"
	"vmtherm/internal/mathx"
	"vmtherm/internal/telemetry"
	"vmtherm/internal/vmm"
	"vmtherm/internal/workload"
)

// staticSpec is a VM with one cpu-bound task at cpuFrac and no profile, so
// its load never changes.
func staticSpec(id string, vcpus int, cpuFrac float64) workload.VMSpec {
	return workload.VMSpec{
		ID:     id,
		Config: vmm.VMConfig{VCPUs: vcpus, MemoryGB: float64(2 * vcpus)},
		Tasks: []workload.TaskSpec{
			{Task: vmm.Task{ID: id + "-t", Class: vmm.CPUBound, CPUFraction: cpuFrac, MemGB: 1}},
		},
	}
}

func TestCRACValidate(t *testing.T) {
	if err := DefaultCRAC().Validate(); err != nil {
		t.Error(err)
	}
	for _, c := range []CRAC{
		{SupplyC: 50},
		{SupplyC: 4},
		{SupplyC: math.NaN()},
		{SupplyC: 18, RecircPerUtil: -1},
		{SupplyC: 18, RecircPerUtil: math.NaN()},
		{SupplyC: 18, RecircPerUtil: math.Inf(1)},
	} {
		if err := c.Validate(); err == nil {
			t.Errorf("%+v accepted", c)
		}
	}
}

// TestInletTempSlotOffsetsAndRecirc: an idle rack's slot s breathes the
// supply plus RackSpreadC·s/(H−1); load on the rack warms every slot
// through recirculation, and only that rack's slots.
func TestInletTempSlotOffsetsAndRecirc(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Racks, cfg.HostsPerRack, cfg.RackSpreadC = 2, 3, 2
	f, err := New(cfg, vmm.DefaultHostConfig(), 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []float64{18, 19, 20, 18, 19, 20} {
		if got := f.Inlet(i); got != want {
			t.Errorf("idle inlet %d = %v, want %v", i, got, want)
		}
	}
	for _, id := range []string{"v1", "v2"} {
		if err := f.Place(0, staticSpec(id, 4, 1)); err != nil {
			t.Fatal(err)
		}
	}
	// Two busy vCPUs of 16 put rack 0 at mean utilization 1/24: its slots
	// run 6 · 1/24 = 0.25 °C warmer.
	for i, want := range []float64{18.25, 19.25, 20.25, 18, 19, 20} {
		if got := f.Inlet(i); math.Abs(got-want) > 1e-12 {
			t.Errorf("loaded inlet %d = %v, want %v", i, got, want)
		}
	}
}

// TestInletBeforeFirstTickMatchesTick: with loads that no tick changes
// (profile-less VMs), every slot's inlet computed before the first tick
// equals the tick's cached inlet bit for bit — both are (supply +
// recirculation·mean) + offset, in that order.
func TestInletBeforeFirstTickMatchesTick(t *testing.T) {
	f, err := New(DefaultConfig(), vmm.DefaultHostConfig(), 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	rng := mathx.SplitStable(2017, "inlet-order")
	for k := 0; k < 3*len(f.IDs()); k++ {
		_ = f.Place(rng.Intn(len(f.IDs())), staticSpec(fmt.Sprintf("v%d", k), rng.IntBetween(1, 4), rng.Uniform(0, 1)))
	}
	before := make([]float64, len(f.IDs()))
	for i := range before {
		before[i] = f.Inlet(i)
	}
	if err := f.Advance(f.cfg.TickS, func(telemetry.Reading) bool { return true }); err != nil {
		t.Fatal(err)
	}
	for i, want := range before {
		if got := f.Inlet(i); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("slot %d: inlet %v after the tick, %v before", i, got, want)
		}
	}
}

// TestHostStateCase pins the oracle Deployment is compared against: every
// placed VM in id order, fan count and ambient passed through, a candidate
// appended last, and an error for a nil host or an empty state.
func TestHostStateCase(t *testing.T) {
	f := testFleet(t)
	for _, id := range []string{"v2", "v1"} {
		if err := f.Place(0, staticSpec(id, 2, 0.7)); err != nil {
			t.Fatal(err)
		}
	}
	c, err := HostStateCase(f.Host(0), 4, 21, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.VMs) != 2 || c.VMs[0].ID != "v1" || c.VMs[1].ID != "v2" || c.Name != "state:"+f.IDs()[0] {
		t.Errorf("state %s should list v1, v2: %+v", c.Name, c.VMs)
	}
	if c.FanCount != 4 || c.AmbientC != 21 {
		t.Error("fan/ambient not propagated")
	}
	cand := staticSpec("new", 2, 0.5)
	c2, err := HostStateCase(f.Host(0), 4, 21, &cand)
	if err != nil {
		t.Fatal(err)
	}
	if len(c2.VMs) != 3 || c2.VMs[2].ID != "new" {
		t.Error("candidate not appended")
	}
	if _, err := HostStateCase(nil, 4, 21, nil); err == nil {
		t.Error("nil host should fail")
	}
	if _, err := HostStateCase(f.Host(1), 4, 21, nil); err == nil {
		t.Error("empty host without candidate should fail")
	}
}

// sortedLargest is LargestVM as a walk over the host's VMs sorted by id,
// keeping the first of the highest demands: the oracle for the scan.
func sortedLargest(h *vmm.Host) *vmm.VM {
	var best *vmm.VM
	for _, vm := range h.VMs() {
		if best == nil || vm.CPUDemandVCPUs() > best.CPUDemandVCPUs() {
			best = vm
		}
	}
	return best
}

// TestLargestVMMatchesSortedWalk: on hosts whose VMs share a handful of
// demands, placed in random id order, LargestVM picks what the sorted walk
// picks — the lowest id among the highest demands — and allocates nothing.
func TestLargestVMMatchesSortedWalk(t *testing.T) {
	f := testFleet(t)
	// The tie case: equal demands placed in descending id order.
	for _, id := range []string{"b", "a", "c"} {
		if err := f.Place(0, staticSpec(id, 2, 0.5)); err != nil {
			t.Fatal(err)
		}
	}
	if vm, err := f.LargestVM(0); err != nil || vm.ID() != "a" {
		t.Fatalf("tie picked %v, %v; want a", vm, err)
	}
	rng := mathx.SplitStable(2017, "largest")
	for k := 0; k < 200; k++ {
		id := fmt.Sprintf("vm-%d", rng.Intn(1000))
		_ = f.Place(1+rng.Intn(len(f.IDs())-1), staticSpec(id, 2, []float64{0.25, 0.5, 0.75}[rng.Intn(3)]))
	}
	for i := range f.IDs() {
		got, err := f.LargestVM(i)
		want := sortedLargest(f.Host(i))
		if (err != nil) != (want == nil) || (want != nil && got != want) {
			t.Errorf("slot %d: LargestVM %v, %v; sorted walk %v", i, got, err, want)
		}
	}
	if allocs := testing.AllocsPerRun(10, func() { _, _ = f.LargestVM(0) }); allocs != 0 {
		t.Errorf("LargestVM allocates %.1f/op, want 0", allocs)
	}
}

// TestAnchorKeyPinned pins one fixed deployment's anchor key to the value
// keys had while VMs carried a lifecycle state: a checkpointed anchor cache
// must keep hitting after a restore.
func TestAnchorKeyPinned(t *testing.T) {
	f := testFleet(t)
	for _, spec := range []workload.VMSpec{
		{ID: "web", Config: vmm.VMConfig{VCPUs: 2, MemoryGB: 4}, Tasks: []workload.TaskSpec{
			{Task: vmm.Task{ID: "a", Class: vmm.CPUBound, CPUFraction: 0.6, MemGB: 1}},
			{Task: vmm.Task{ID: "b", Class: vmm.MemBound, CPUFraction: 0.3, MemGB: 2}},
		}},
		{ID: "db", Config: vmm.VMConfig{VCPUs: 4, MemoryGB: 8}, Tasks: []workload.TaskSpec{
			{Task: vmm.Task{ID: "q", Class: vmm.IOBound, CPUFraction: 0.2, MemGB: 3}, Profile: workload.Constant{Level: 0.8}},
		}},
	} {
		if err := f.Place(5, spec); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Advance(5, func(telemetry.Reading) bool { return true }); err != nil {
		t.Fatal(err)
	}
	_, keys := f.ScanAnchors(anchorcache.DefaultQuantizer())
	if got, want := uint64(keys[5]), uint64(0x2ebb80859bdd527e); got != want {
		t.Errorf("anchor key %#x, want %#x", got, want)
	}
}
