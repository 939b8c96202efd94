// vmtherm-loadgen profiles the serving capacity of a vmtherm-fleetd -addr
// (with a fleet, or -source none for the prediction API alone) under a
// tail-latency SLO — the number a
// thermal-aware scheduler that consumes predictions for hundreds of hosts
// per round has to plan with.
//
// Per endpoint it steps load up through warm-up/measure/cool-down phases
// (internal/sloharness, after the vHive profiling loader) until the declared
// SLO breaks, then bisects, and reports the max sustainable RPS. Requests
// are dispatched against an absolute schedule, so a server falling behind
// shows up as latency and achieved-throughput shortfall instead of silently
// throttling the load. -inprocess profiles a self-contained server (trained
// fast model + simulated fleet) — what CI runs; otherwise -addr is profiled.
// Writes capacity.json (-out) and a CAPACITY.md report (-report).
//
// Endpoints (-endpoints): stable, session, ingest, freshness, hotspots,
// place. A fixed-rate run is a one-step profile: -slo-start R -slo-max R
// -slo-measure D.
//
// Usage:
//
//	vmtherm-train -fast -out model.svm
//	vmtherm-fleetd -source none -model model.svm -addr :8080 &
//	vmtherm-loadgen -addr http://127.0.0.1:8080 -endpoints stable,session -batch 64
//	vmtherm-loadgen -inprocess -endpoints stable,place -batch 16 -out capacity.json
package main

import (
	"flag"
	"log"
	"os"

	"vmtherm/internal/dataset"
	"vmtherm/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("vmtherm-loadgen: ")
	fs := flag.NewFlagSet("vmtherm-loadgen", flag.ExitOnError)
	f := bindFlags(fs)
	_ = fs.Parse(os.Args[1:]) // ExitOnError: Parse does not return an error
	if err := run(f, os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// syntheticRows builds batch-many plausible Eq. (2) feature rows by encoding
// generated workload cases through the real dataset pipeline.
func syntheticRows(seed int64, batch int) ([][]float64, error) {
	cases, err := workload.GenerateCases(workload.DefaultGenOptions(), seed, "lg", batch)
	if err != nil {
		return nil, err
	}
	rows := make([][]float64, len(cases))
	for i, c := range cases {
		row, err := dataset.Encode(c, 1800)
		if err != nil {
			return nil, err
		}
		rows[i] = row
	}
	return rows, nil
}
