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
// without allocating — the building block for serving loops that encode
// thousands of anchor cases per round into one reused flat feature matrix.
func EncodeInto(c workload.Case, horizonS float64, dst []float64) error {
	return encodeInto(c, horizonS, dst, nil)
}

// ProfileMemo remembers the profile means of the last profiled task list an
// encode integrated, so a run of cases that share one list — a placement
// wave appends the same candidate VM, Tasks slice header and all, to every
// host of its window — pays workload.MeanOver once instead of once per case.
// The key is the list's identity (first element, length) plus the horizon:
// it is only sound while the keyed memory is not rewritten, so the owner
// calls Reset before each batch of cases it does not control the lifetime
// of. A hit replays the float MeanOver returned; nothing is approximated.
// The zero value is ready; a ProfileMemo is not safe for concurrent use.
type ProfileMemo struct {
	first    *workload.TaskSpec
	n        int
	horizonS float64
	means    []float64 // per task of the keyed list; unset where Profile is nil
}

// Reset forgets the remembered task list.
func (m *ProfileMemo) Reset() { m.first = nil }

// EncodeInto is dataset.EncodeInto through the memo: same checks, same
// errors, bit-identical features.
func (m *ProfileMemo) EncodeInto(c workload.Case, horizonS float64, dst []float64) error {
	return encodeInto(c, horizonS, dst, m)
}

// mean returns the profile mean of tasks[k] (a profiled task), integrating
// the whole list on a miss so its other profiled tasks hit.
func (m *ProfileMemo) mean(tasks []workload.TaskSpec, k int, horizonS float64) (float64, error) {
	if m.first == &tasks[0] && m.n == len(tasks) && m.horizonS == horizonS {
		return m.means[k], nil
	}
	m.first = nil // a failed integration must not leave a half-filled hit
	if cap(m.means) < len(tasks) {
		m.means = make([]float64, len(tasks))
	}
	m.means = m.means[:len(tasks)]
	for i := range tasks {
		if tasks[i].Profile == nil {
			continue
		}
		mean, err := profileMean(&tasks[i], horizonS)
		if err != nil {
			return 0, err
		}
		m.means[i] = mean
	}
	m.first, m.n, m.horizonS = &tasks[0], len(tasks), horizonS
	return m.means[k], nil
}

// profileMean averages a profiled task's CPU demand over [0, horizonS] on
// the 201-point grid the model was trained on.
func profileMean(ts *workload.TaskSpec, horizonS float64) (float64, error) {
	mean, err := workload.MeanOver(ts.Profile, 0, horizonS, horizonS/200)
	if err != nil {
		return 0, fmt.Errorf("dataset: task %s: %w", ts.Task.ID, err)
	}
	return mean, nil
}

// encodeInto is the one encoder body; memo may be nil.
func encodeInto(c workload.Case, horizonS float64, dst []float64, memo *ProfileMemo) error {
	if len(dst) != len(featureNames) {
		return fmt.Errorf("dataset: encode dst length %d, want %d", len(dst), len(featureNames))
	}
	if len(c.VMs) == 0 {
		return errors.New("dataset: case has no VMs")
	}
	if horizonS <= 0 {
		return fmt.Errorf("dataset: horizon must be > 0, got %v", horizonS)
	}

	var vcpus, memAlloc, demand, memActive float64
	var taskCount int
	var cpuSum, cpuMax float64
	// Class frequencies indexed by TaskClass (1-based contiguous constants);
	// a fixed array instead of a map keeps the encoder allocation-free.
	var classCounts [5]float64

	for _, spec := range c.VMs {
		vcpus += float64(spec.Config.VCPUs)
		memAlloc += spec.Config.MemoryGB
		var vmDemand, vmMem float64
		for k := range spec.Tasks {
			ts := &spec.Tasks[k]
			mean := ts.Task.CPUFraction
			if ts.Profile != nil {
				var err error
				if memo != nil {
					mean, err = memo.mean(spec.Tasks, k, horizonS)
				} else {
					mean, err = profileMean(ts, horizonS)
				}
				if err != nil {
					return err
				}
			}
			vmDemand += mean
			vmMem += ts.Task.MemGB
			cpuSum += mean
			if mean > cpuMax {
				cpuMax = mean
			}
			if cl := ts.Task.Class; cl >= vmm.CPUBound && cl <= vmm.Bursty {
				classCounts[cl]++
			}
			taskCount++
		}
		demand += math.Min(vmDemand, float64(spec.Config.VCPUs))
		memActive += math.Min(vmMem, spec.Config.MemoryGB)
	}
	if taskCount == 0 {
		return errors.New("dataset: case has no tasks")
	}

	tc := float64(taskCount)
	dst[0] = c.Host.CPUCapacityGHz()
	dst[1] = c.Host.MemoryGB
	dst[2] = float64(c.FanCount)
	dst[3] = c.AmbientC
	dst[4] = float64(len(c.VMs))
	dst[5] = vcpus
	dst[6] = memAlloc
	dst[7] = demand
	dst[8] = memActive
	dst[9] = tc
	dst[10] = cpuSum / tc
	dst[11] = cpuMax
	dst[12] = classCounts[vmm.CPUBound] / tc
	dst[13] = classCounts[vmm.MemBound] / tc
	dst[14] = classCounts[vmm.IOBound] / tc
	dst[15] = classCounts[vmm.Bursty] / tc
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
