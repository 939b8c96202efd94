package fleet

import (
	"fmt"

	"vmtherm/internal/vmm"
	"vmtherm/internal/workload"
)

// SyntheticStablePredictor is a physics-flavored stand-in for the trained
// SVM: it maps a host row to ambient plus risePerUtilC × utilization, the
// utilization being Σ_vm min(Σ task CPU fraction, vCPUs) over the cores —
// the fold's demand, each task at its instantaneous CPUFraction. The
// absolute level is deliberately imperfect — the dynamic calibration γ is
// what reconciles it with the measured trajectory, exactly as with a real
// model. It backs `vmtherm-fleetd -synthetic`, the examples, and the test
// suites (75 °C/util roughly matches the simulated substrate's full-load
// rise).
func SyntheticStablePredictor(risePerUtilC float64) Predictor {
	return Predictor{
		TaskDemand: func(ts *workload.TaskSpec) (float64, error) { return ts.Task.CPUFraction, nil },
		Score: func(shape vmm.HostConfig, _ int, rows []HostRow, out []float64) error {
			for i := range rows {
				util := rows[i].Fold.Demand() / float64(shape.Cores)
				if util > 1 {
					util = 1
				}
				out[i] = rows[i].AmbientC + risePerUtilC*util
			}
			return nil
		},
	}
}

// HeavyVMSpec builds a VM spec that pins vcpus worth of constant full CPU
// load — the adversarial tenant used to provoke hotspots in tests, demos
// and `vmtherm-fleetd -hotseed`.
func HeavyVMSpec(id string, vcpus int, memGB float64) workload.VMSpec {
	spec := workload.VMSpec{
		ID:     id,
		Config: vmm.VMConfig{VCPUs: vcpus, MemoryGB: memGB},
	}
	for k := 0; k < vcpus; k++ {
		spec.Tasks = append(spec.Tasks, workload.TaskSpec{
			Task: vmm.Task{
				ID:          fmt.Sprintf("%s-t%d", id, k),
				Class:       vmm.CPUBound,
				CPUFraction: 1,
				MemGB:       0.5,
			},
			Profile: workload.Constant{Level: 1},
		})
	}
	return spec
}
