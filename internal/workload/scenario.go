package workload

import (
	"fmt"

	"vmtherm/internal/mathx"
	"vmtherm/internal/vmm"
)

// TaskSpec pairs a task definition with its load profile over time.
type TaskSpec struct {
	Task    vmm.Task
	Profile Profile
}

// VMSpec describes one VM of an experiment case.
type VMSpec struct {
	ID     string
	Config vmm.VMConfig
	Tasks  []TaskSpec
}

// Case is one randomized experiment of the paper's evaluation: a host shape,
// cooling and environment conditions, and a set of VMs with tasks.
type Case struct {
	// Name identifies the case in reports.
	Name string
	// Host is the server capacity (θ_cpu, θ_memory derive from it).
	Host vmm.HostConfig
	// FanCount is the number of healthy fans (θ_fan).
	FanCount int
	// AmbientC is the environment temperature (δ_env).
	AmbientC float64
	// VMs are the tenant VMs with their tasks (ξ_VM).
	VMs []VMSpec
}

// NumTasks counts all tasks across VMs.
func (c Case) NumTasks() int {
	n := 0
	for _, vm := range c.VMs {
		n += len(vm.Tasks)
	}
	return n
}

// tasksPerVMMax bounds the tasks the generator gives a VM (min is 1).
const tasksPerVMMax = 3

// GenOptions bounds the randomized case generator. The defaults mirror the
// paper's evaluation: 2–12 VMs per server, 1–3 tasks of mixed classes per
// VM, 2–6 fans, datacenter ambient between 18 and 28 °C.
type GenOptions struct {
	VMCountMin, VMCountMax int
	FanChoices             []int
	AmbientMinC            float64
	AmbientMaxC            float64
	// Dynamic, when true, assigns time-varying profiles (sine/bursty/ramp)
	// in addition to constant loads; stable-prediction experiments use
	// constant loads, dynamic-prediction experiments enable this.
	Dynamic bool
	// Host is the host shape used for every case.
	Host vmm.HostConfig
}

// DefaultGenOptions returns the paper-equivalent generator bounds.
func DefaultGenOptions() GenOptions {
	return GenOptions{
		VMCountMin:  2,
		VMCountMax:  12,
		FanChoices:  []int{2, 4, 6},
		AmbientMinC: 18,
		AmbientMaxC: 28,
		Host:        vmm.DefaultHostConfig(),
	}
}

// Validate checks generator bounds.
func (o GenOptions) Validate() error {
	if o.VMCountMin < 1 || o.VMCountMax < o.VMCountMin {
		return fmt.Errorf("workload: vm count range [%d, %d] invalid", o.VMCountMin, o.VMCountMax)
	}
	if len(o.FanChoices) == 0 {
		return fmt.Errorf("workload: no fan choices")
	}
	for _, f := range o.FanChoices {
		if f < 0 {
			return fmt.Errorf("workload: negative fan choice %d", f)
		}
	}
	if o.AmbientMaxC < o.AmbientMinC {
		return fmt.Errorf("workload: ambient range [%v, %v] inverted", o.AmbientMinC, o.AmbientMaxC)
	}
	return o.Host.Validate()
}

// vmShapes are the flavor catalog cases draw from (vCPUs, memory GB),
// deliberately heterogeneous as in multi-tenant clouds.
var vmShapes = []vmm.VMConfig{
	{VCPUs: 1, MemoryGB: 2},
	{VCPUs: 1, MemoryGB: 4},
	{VCPUs: 2, MemoryGB: 4},
	{VCPUs: 2, MemoryGB: 8},
	{VCPUs: 4, MemoryGB: 8},
	{VCPUs: 4, MemoryGB: 16},
}

// GenerateCase produces one randomized experiment case. The same (opts,
// seed, name) triple always yields the same case.
func GenerateCase(opts GenOptions, seed int64, name string) (Case, error) {
	if err := opts.Validate(); err != nil {
		return Case{}, err
	}
	rng := mathx.SplitStable(seed, "case:"+name)
	c := Case{
		Name:     name,
		Host:     opts.Host,
		FanCount: opts.FanChoices[rng.Intn(len(opts.FanChoices))],
		AmbientC: rng.Uniform(opts.AmbientMinC, opts.AmbientMaxC),
	}
	nVMs := rng.IntBetween(opts.VMCountMin, opts.VMCountMax)

	// Track capacity so generated cases are always admissible.
	vcpuBudget := float64(opts.Host.Cores) * opts.Host.CPUOvercommit
	memBudget := opts.Host.MemoryGB

	for v := 0; v < nVMs; v++ {
		shape := vmShapes[rng.Intn(len(vmShapes))]
		if float64(shape.VCPUs) > vcpuBudget || shape.MemoryGB > memBudget {
			// Fall back to the smallest flavor; if even that does not fit,
			// the host is full and the case simply has fewer VMs.
			shape = vmShapes[0]
			if float64(shape.VCPUs) > vcpuBudget || shape.MemoryGB > memBudget {
				break
			}
		}
		vcpuBudget -= float64(shape.VCPUs)
		memBudget -= shape.MemoryGB

		spec := VMSpec{
			ID:     fmt.Sprintf("%s-vm%02d", name, v),
			Config: shape,
		}
		nTasks := rng.IntBetween(1, tasksPerVMMax)
		for k := 0; k < nTasks; k++ {
			spec.Tasks = append(spec.Tasks, randomTask(rng, opts, spec.ID, k))
		}
		c.VMs = append(c.VMs, spec)
	}
	return c, nil
}

// GenerateCases produces n cases named base-00, base-01, ...
func GenerateCases(opts GenOptions, seed int64, base string, n int) ([]Case, error) {
	if n < 1 {
		return nil, fmt.Errorf("workload: case count %d < 1", n)
	}
	out := make([]Case, 0, n)
	for i := 0; i < n; i++ {
		c, err := GenerateCase(opts, seed, fmt.Sprintf("%s-%02d", base, i))
		if err != nil {
			return nil, err
		}
		out = append(out, c)
	}
	return out, nil
}

// randomTask draws a task whose resource profile matches its class.
func randomTask(rng *mathx.RNG, opts GenOptions, vmID string, k int) TaskSpec {
	classes := vmm.TaskClasses()
	class := classes[rng.Intn(len(classes))]
	id := fmt.Sprintf("%s-t%d", vmID, k)

	var cpu, memGB float64
	var prof Profile
	switch class {
	case vmm.CPUBound:
		cpu = rng.Uniform(0.6, 1.0)
		memGB = rng.Uniform(0.1, 1.0)
	case vmm.MemBound:
		cpu = rng.Uniform(0.25, 0.55)
		memGB = rng.Uniform(2.0, 6.0)
	case vmm.IOBound:
		cpu = rng.Uniform(0.05, 0.2)
		memGB = rng.Uniform(0.2, 1.5)
	case vmm.Bursty:
		cpu = rng.Uniform(0.5, 0.9)
		memGB = rng.Uniform(0.5, 2.0)
	}

	if opts.Dynamic {
		switch class {
		case vmm.Bursty:
			prof = Bursty{
				Low:       cpu * 0.15,
				High:      cpu,
				Period:    rng.Uniform(60, 300),
				DutyCycle: rng.Uniform(0.3, 0.7),
			}
		case vmm.CPUBound:
			prof = Sine{
				Base:      cpu * 0.85,
				Amplitude: cpu * 0.15,
				Period:    rng.Uniform(120, 600),
				Phase:     rng.Uniform(0, 6.28),
			}
		default:
			prof = Constant{Level: cpu}
		}
	} else {
		prof = Constant{Level: cpu}
	}

	return TaskSpec{
		Task: vmm.Task{
			ID:          id,
			Class:       class,
			CPUFraction: prof.At(0),
			MemGB:       memGB,
		},
		Profile: prof,
	}
}
