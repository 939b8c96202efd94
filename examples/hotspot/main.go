// Hotspot: thermal-aware VM placement at datacenter scale — the paper's
// motivating use case ("minimizing temperature distribution disparity ...
// to reduce the probability of hotspot occurrence"). Thirty VMs are placed
// into 3 racks × 4 hosts by three policies; per-host stable temperatures
// are then predicted and hotspots counted.
//
// Run with: go run ./examples/hotspot
package main

import (
	"context"
	"fmt"
	"log"

	"vmtherm/internal/cluster"
	"vmtherm/internal/core"
	"vmtherm/internal/dataset"
	"vmtherm/internal/vmm"
	"vmtherm/internal/workload"
)

const (
	racks        = 3
	hostsPerRack = 4
	vmCount      = 30
	fanCount     = 4
	hotThreshold = 65.0 // °C
	horizonS     = 1800.0
)

func main() {
	log.SetFlags(0)
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	ctx := context.Background()
	const seed = 11

	// Train the temperature model once.
	trainCases, err := workload.GenerateCases(workload.DefaultGenOptions(), seed, "train", 60)
	if err != nil {
		return err
	}
	fmt.Println("training stable model on 60 simulated experiments...")
	records, err := dataset.Build(ctx, trainCases, dataset.DefaultBuildOptions(seed))
	if err != nil {
		return err
	}
	model, err := core.TrainStable(ctx, records, core.FastStableConfig())
	if err != nil {
		return err
	}

	// The VM arrival sequence is identical for every policy.
	arrivals, err := arrivalSequence(seed)
	if err != nil {
		return err
	}

	policies := []cluster.Placer{
		cluster.FirstFit{},
		cluster.CoolestInlet{},
		cluster.PredictedTemp{
			FanCount: fanCount,
			Predict:  func(c workload.Case) (float64, error) { return model.PredictCase(c, horizonS) },
		},
	}

	fmt.Printf("\nplacing %d VMs into %d racks × %d hosts, hotspot threshold %.0f °C\n\n",
		vmCount, racks, hostsPerRack, hotThreshold)
	fmt.Printf("%-16s %9s %10s %10s %9s\n", "policy", "hotspots", "max°C", "mean°C", "rejected")

	for _, p := range policies {
		hotspots, maxT, meanT, rejected, err := evaluatePolicy(p, arrivals, model)
		if err != nil {
			return err
		}
		fmt.Printf("%-16s %9d %10.2f %10.2f %9d\n", p.Name(), hotspots, maxT, meanT, rejected)
	}
	fmt.Println("\nprediction-driven placement spreads heat: fewer hotspots and a lower peak.")
	return nil
}

// arrivalSequence builds a deterministic stream of VM requests.
func arrivalSequence(seed int64) ([]workload.VMSpec, error) {
	opts := workload.DefaultGenOptions()
	opts.VMCountMin, opts.VMCountMax = vmCount, vmCount
	// One giant case is just a convenient generator for VM specs.
	opts.Host.Cores = 1024
	opts.Host.MemoryGB = 8192
	c, err := workload.GenerateCase(opts, seed, "arrivals")
	if err != nil {
		return nil, err
	}
	return c.VMs, nil
}

// evaluatePolicy runs the placement sequence under one policy and scores
// the resulting thermal layout with the trained model.
func evaluatePolicy(p cluster.Placer, arrivals []workload.VMSpec, model *core.StablePredictor) (hotspots int, maxT, meanT float64, rejected int, err error) {
	dc, err := buildDatacenter(p.Name())
	if err != nil {
		return 0, 0, 0, 0, err
	}
	for _, spec := range arrivals {
		host, err := p.Choose(dc, spec)
		if err != nil {
			rejected++
			continue
		}
		vm, err := vmm.NewVM(spec.ID+"@"+p.Name(), spec.Config)
		if err != nil {
			return 0, 0, 0, 0, err
		}
		for _, ts := range spec.Tasks {
			if err := vm.AddTask(ts.Task); err != nil {
				return 0, 0, 0, 0, err
			}
		}
		if err := host.Place(vm); err != nil {
			return 0, 0, 0, 0, err
		}
		if err := vm.Start(0); err != nil {
			return 0, 0, 0, 0, err
		}
	}

	// Predict per-host stable temperatures for the final layout.
	temps := map[string]float64{}
	var sum float64
	var n int
	for _, pos := range dc.AllHosts() {
		host := pos.Rack.Hosts()[pos.Slot]
		if host.NumVMs() == 0 {
			continue
		}
		inlet, err := dc.InletTemp(pos.Rack, pos.Slot)
		if err != nil {
			return 0, 0, 0, 0, err
		}
		state, err := cluster.HostStateCase(host, fanCount, inlet, nil)
		if err != nil {
			return 0, 0, 0, 0, err
		}
		t, err := model.PredictCase(state, horizonS)
		if err != nil {
			return 0, 0, 0, 0, err
		}
		temps[host.ID()] = t
		sum += t
		n++
		if t > maxT {
			maxT = t
		}
	}
	if n > 0 {
		meanT = sum / float64(n)
	}
	return len(cluster.DetectHotspots(temps, hotThreshold)), maxT, meanT, rejected, nil
}

// buildDatacenter assembles 3 racks × 4 hosts with top-of-rack slots warmer.
func buildDatacenter(tag string) (*cluster.Datacenter, error) {
	var rs []*cluster.Rack
	for r := 0; r < racks; r++ {
		hosts := make([]*vmm.Host, hostsPerRack)
		offsets := make([]float64, hostsPerRack)
		for s := 0; s < hostsPerRack; s++ {
			h, err := vmm.NewHost(fmt.Sprintf("%s-r%d-h%d", tag, r, s), vmm.DefaultHostConfig())
			if err != nil {
				return nil, err
			}
			hosts[s] = h
			offsets[s] = float64(s) * 1.5
		}
		rack, err := cluster.NewRack(fmt.Sprintf("%s-r%d", tag, r), hosts, offsets)
		if err != nil {
			return nil, err
		}
		rs = append(rs, rack)
	}
	return cluster.NewDatacenter(cluster.DefaultCRAC(), rs)
}
