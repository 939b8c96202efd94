// Hotspot: thermal-aware VM placement at datacenter scale — the paper's
// motivating use case ("minimizing temperature distribution disparity ...
// to reduce the probability of hotspot occurrence"). Thirty VMs are placed
// into a simulated fleet of 3 racks × 4 hosts by three policies; per-host
// stable temperatures are then predicted and hotspots counted.
//
// Run with: go run ./examples/hotspot
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"math"
	"os"

	"vmtherm/internal/core"
	"vmtherm/internal/dataset"
	"vmtherm/internal/substrate"
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
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// policy names a placement rule: pick returns the slot of f that takes
// spec, or -1 when no host can admit it.
type policy struct {
	name string
	pick func(f *substrate.Fleet, spec *workload.VMSpec) (int, error)
}

func run(w io.Writer) error {
	ctx := context.Background()
	const seed = 11

	// Train the temperature model once.
	trainCases, err := workload.GenerateCases(workload.DefaultGenOptions(), seed, "train", 60)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "training stable model on 60 simulated experiments...")
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

	policies := []policy{
		{"first-fit", firstFit},
		{"coolest-inlet", coolestInlet},
		{"predicted-temp", predictedTemp(model)},
	}

	fmt.Fprintf(w, "\nplacing %d VMs into %d racks × %d hosts, hotspot threshold %.0f °C\n\n",
		vmCount, racks, hostsPerRack, hotThreshold)
	fmt.Fprintf(w, "%-16s %9s %10s %10s %9s\n", "policy", "hotspots", "max°C", "mean°C", "rejected")

	for _, p := range policies {
		hotspots, maxT, meanT, rejected, err := evaluatePolicy(p, arrivals, model)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-16s %9d %10.2f %10.2f %9d\n", p.name, hotspots, maxT, meanT, rejected)
	}
	fmt.Fprintln(w, "\nprediction-driven placement spreads heat: fewer hotspots and a lower peak.")
	return nil
}

// firstFit takes the first host (rack/slot order) with capacity — the
// thermally-blind baseline.
func firstFit(f *substrate.Fleet, spec *workload.VMSpec) (int, error) {
	for i := range f.IDs() {
		if f.Host(i).CanAdmit(spec.Config) {
			return i, nil
		}
	}
	return -1, nil
}

// coolestInlet takes the admitting host with the lowest inlet temperature —
// thermal-aware but blind to what the VM itself will do.
func coolestInlet(f *substrate.Fleet, spec *workload.VMSpec) (int, error) {
	best, bestInlet := -1, math.Inf(1)
	for i := range f.IDs() {
		if inlet := f.Inlet(i); f.Host(i).CanAdmit(spec.Config) && inlet < bestInlet {
			best, bestInlet = i, inlet
		}
	}
	return best, nil
}

// predictedTemp takes the admitting host whose *predicted post-placement*
// stable temperature is lowest — the paper's proactive thermal management
// use case.
func predictedTemp(model *core.StablePredictor) func(*substrate.Fleet, *workload.VMSpec) (int, error) {
	return func(f *substrate.Fleet, spec *workload.VMSpec) (int, error) {
		best, bestTemp := -1, math.Inf(1)
		for i := range f.IDs() {
			if !f.Host(i).CanAdmit(spec.Config) {
				continue
			}
			state, err := substrate.HostStateCase(f.Host(i), fanCount, f.Inlet(i), spec)
			if err != nil {
				return -1, err
			}
			predicted, err := model.PredictCase(state, horizonS)
			if err != nil {
				return -1, fmt.Errorf("predicting for %s: %w", f.IDs()[i], err)
			}
			if predicted < bestTemp {
				best, bestTemp = i, predicted
			}
		}
		return best, nil
	}
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

// evaluatePolicy runs the placement sequence under one policy on a fresh
// fleet and scores the resulting thermal layout with the trained model.
func evaluatePolicy(p policy, arrivals []workload.VMSpec, model *core.StablePredictor) (hotspots int, maxT, meanT float64, rejected int, err error) {
	// 3 racks × 4 hosts, top-of-rack slots warmer: 0, 1.5, 3 and 4.5 °C.
	cfg := substrate.DefaultConfig()
	cfg.Racks, cfg.HostsPerRack, cfg.RackSpreadC = racks, hostsPerRack, 4.5
	f, err := substrate.New(cfg, vmm.DefaultHostConfig(), fanCount, 1)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	for _, spec := range arrivals {
		i, err := p.pick(f, &spec)
		if err != nil {
			return 0, 0, 0, 0, err
		}
		if i < 0 {
			rejected++
			continue
		}
		if err := f.Place(i, spec); err != nil {
			return 0, 0, 0, 0, err
		}
	}

	// Predict per-host stable temperatures for the final layout.
	var sum float64
	var n int
	for i := range f.IDs() {
		if f.Host(i).NumVMs() == 0 {
			continue
		}
		state, err := substrate.HostStateCase(f.Host(i), fanCount, f.Inlet(i), nil)
		if err != nil {
			return 0, 0, 0, 0, err
		}
		t, err := model.PredictCase(state, horizonS)
		if err != nil {
			return 0, 0, 0, 0, err
		}
		if t > hotThreshold {
			hotspots++
		}
		sum += t
		n++
		if t > maxT {
			maxT = t
		}
	}
	if n > 0 {
		meanT = sum / float64(n)
	}
	return hotspots, maxT, meanT, rejected, nil
}
