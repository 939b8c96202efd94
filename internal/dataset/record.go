// Package dataset realizes the paper's Eq. (2): each experiment produces one
// record {input, output} with input = {θ_cpu, θ_memory, θ_fan, ξ_VM, δ_env}
// and output = ψ_stable. The paper leaves the encoding of ξ_VM ("VM
// configurations and deployed tasks") unspecified; we aggregate it into
// twelve numeric features, listed and documented on FeatureNames.
package dataset

import (
	"errors"
	"fmt"
	"math"

	"vmtherm/internal/mathx"
	"vmtherm/internal/vmm"
	"vmtherm/internal/workload"
)

// Record is one training/testing example (Eq. 2).
type Record struct {
	// CaseName ties the record back to its experiment case.
	CaseName string
	// Features is the encoded input vector; see FeatureNames.
	Features []float64
	// StableTemp is ψ_stable, the Eq. (1) output.
	StableTemp float64
}

// featureNames is the canonical feature order.
var featureNames = []string{
	"cpu_capacity_ghz", // θ_cpu
	"memory_gb",        // θ_memory
	"fan_count",        // θ_fan
	"ambient_c",        // δ_env
	"vm_count",         // ξ_VM …
	"vcpus_allocated",  //
	"mem_allocated_gb", //
	"cpu_demand_vcpus", // mean aggregate task demand over the experiment
	"mem_active_gb",    //
	"task_count",       //
	"task_cpu_mean",    //
	"task_cpu_max",     //
	"frac_cpu_bound",   // task-class mix …
	"frac_mem_bound",   //
	"frac_io_bound",    //
	"frac_bursty",      //
}

// FeatureNames returns the canonical feature order (a copy).
func FeatureNames() []string {
	out := make([]string, len(featureNames))
	copy(out, featureNames)
	return out
}

// NumFeatures is the feature vector length.
func NumFeatures() int { return len(featureNames) }

// Encode converts a workload case into the Eq. (2) input vector. Task CPU
// demand is averaged over [0, horizonS] so dynamic profiles contribute their
// mean load, matching what ψ_stable responds to.
func Encode(c workload.Case, horizonS float64) ([]float64, error) {
	dst := make([]float64, NumFeatures())
	if err := EncodeInto(c, horizonS, dst); err != nil {
		return nil, err
	}
	return dst, nil
}

// EncodeInto encodes a case into dst (len(dst) must be NumFeatures())
// without allocating: it folds each VM in case order, each task at its
// TaskDemand, and finishes the fold at the case's host, fans and ambient.
func EncodeInto(c workload.Case, horizonS float64, dst []float64) error {
	if horizonS <= 0 {
		return fmt.Errorf("dataset: horizon must be > 0, got %v", horizonS)
	}
	var f Fold
	for i := range c.VMs {
		spec := &c.VMs[i]
		for k := range spec.Tasks {
			d, err := TaskDemand(&spec.Tasks[k], horizonS)
			if err != nil {
				return err
			}
			f.AddTask(d, &spec.Tasks[k].Task)
		}
		f.AddVM(spec.Config)
	}
	return f.Finish(c.Host, c.FanCount, c.AmbientC, dst)
}

// TaskDemand is the CPU demand Eq. (2) reads for one task: its CPUFraction,
// or for a profiled task the profile's mean over [0, horizonS] on the
// 201-point grid the model was trained on.
func TaskDemand(ts *workload.TaskSpec, horizonS float64) (float64, error) {
	if ts.Profile == nil {
		return ts.Task.CPUFraction, nil
	}
	mean, err := workload.MeanOver(ts.Profile, 0, horizonS, horizonS/200)
	if err != nil {
		return 0, fmt.Errorf("dataset: task %s: %w", ts.Task.ID, err)
	}
	return mean, nil
}

// Fold is the encoder's running state over a deployment: the sums the ξ_VM
// features are finished from, added to a task and a VM at a time in case
// order. A caller that prices many candidates on one deployment folds the
// deployment once, copies the Fold, and adds each candidate to its copy:
// the additions run in the order EncodeInto runs them, so the features are
// its bits. The zero value is the empty deployment.
type Fold struct {
	vms, tasks                         int
	vcpus, memAlloc, demand, memActive float64
	cpuSum, cpuMax                     float64
	// classes counts tasks by vmm.TaskClass (1-based contiguous constants).
	classes [5]float64
	// vmDemand and vmMem are the open VM's task sums, closed by AddVM.
	vmDemand, vmMem float64
}

// AddTask folds one task of the VM being added, at CPU demand d (see
// TaskDemand).
func (f *Fold) AddTask(d float64, t *vmm.Task) {
	f.vmDemand += d
	f.vmMem += t.MemGB
	f.cpuSum += d
	if d > f.cpuMax {
		f.cpuMax = d
	}
	if cl := t.Class; cl >= vmm.CPUBound && cl <= vmm.Bursty {
		f.classes[cl]++
	}
	f.tasks++
}

// AddVM closes the VM whose tasks AddTask folded since the previous AddVM:
// its demand is capped at its vCPUs and its active memory at its size.
func (f *Fold) AddVM(cfg vmm.VMConfig) {
	f.vms++
	f.vcpus += float64(cfg.VCPUs)
	f.memAlloc += cfg.MemoryGB
	f.demand += math.Min(f.vmDemand, float64(cfg.VCPUs))
	f.memActive += math.Min(f.vmMem, cfg.MemoryGB)
	f.vmDemand, f.vmMem = 0, 0
}

// Demand is the folded CPU demand in vCPUs, Σ_vm min(Σ task demand, vCPUs):
// the cpu_demand_vcpus feature.
func (f *Fold) Demand() float64 { return f.demand }

// Finish writes the Eq. (2) input vector of the folded deployment on a host
// of the given shape, fan count and ambient into dst (len NumFeatures()).
func (f *Fold) Finish(host vmm.HostConfig, fanCount int, ambientC float64, dst []float64) error {
	if len(dst) != len(featureNames) {
		return fmt.Errorf("dataset: encode dst length %d, want %d", len(dst), len(featureNames))
	}
	if f.vms == 0 {
		return errors.New("dataset: case has no VMs")
	}
	if f.tasks == 0 {
		return errors.New("dataset: case has no tasks")
	}
	tc := float64(f.tasks)
	dst[0] = host.CPUCapacityGHz()
	dst[1] = host.MemoryGB
	dst[2] = float64(fanCount)
	dst[3] = ambientC
	dst[4] = float64(f.vms)
	dst[5] = f.vcpus
	dst[6] = f.memAlloc
	dst[7] = f.demand
	dst[8] = f.memActive
	dst[9] = tc
	dst[10] = f.cpuSum / tc
	dst[11] = f.cpuMax
	dst[12] = f.classes[vmm.CPUBound] / tc
	dst[13] = f.classes[vmm.MemBound] / tc
	dst[14] = f.classes[vmm.IOBound] / tc
	dst[15] = f.classes[vmm.Bursty] / tc
	return nil
}

// Split partitions records into train and test sets with the given test
// fraction, shuffled deterministically by seed.
func Split(records []Record, testFrac float64, seed int64) (train, test []Record, err error) {
	if testFrac < 0 || testFrac >= 1 {
		return nil, nil, fmt.Errorf("dataset: test fraction %v outside [0,1)", testFrac)
	}
	if len(records) == 0 {
		return nil, nil, errors.New("dataset: no records to split")
	}
	rng := mathx.SplitStable(seed, "dataset-split")
	perm := rng.Perm(len(records))
	nTest := int(math.Round(testFrac * float64(len(records))))
	test = make([]Record, 0, nTest)
	train = make([]Record, 0, len(records)-nTest)
	for i, idx := range perm {
		if i < nTest {
			test = append(test, records[idx])
		} else {
			train = append(train, records[idx])
		}
	}
	return train, test, nil
}

// FeaturesAndTargets unzips records into parallel slices for training.
func FeaturesAndTargets(records []Record) (x [][]float64, y []float64) {
	x = make([][]float64, len(records))
	y = make([]float64, len(records))
	for i, r := range records {
		x[i] = r.Features
		y[i] = r.StableTemp
	}
	return x, y
}
