// Replay: record a live fleet run as a telemetry trace, then drive the
// same closed control loop from the recording — no simulator attached.
// This is the trace-replay workload class: a captured experiment (or a
// production incident) becomes a deterministic, re-runnable input to the
// exact engine that ran it live, ThermoSim-style.
//
// The demo records a 2-rack × 4-host fleet with one overloaded machine,
// writes the trace as CSV, replays it through a source-driven controller,
// and shows the replayed loop flagging the same hotspot — twice, to prove
// the replay is deterministic.
//
// Run with: go run ./examples/replay
package main

import (
	"bytes"
	"fmt"
	"log"

	"vmtherm"
)

const (
	thresholdC = 70.0
	seed       = 7
	rounds     = 12
)

func main() {
	log.SetFlags(0)
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// 1. Live run: a simulated fleet with one overloaded host. Each round's
	// snapshot carries the newest reading per host; collecting them across
	// rounds reconstructs the telemetry stream as a trace.
	cfg := vmtherm.DefaultFleetConfig()
	cfg.Racks, cfg.HostsPerRack = 2, 4
	cfg.ThresholdC = thresholdC
	cfg.Seed = seed
	live, err := vmtherm.NewFleet(cfg, vmtherm.FleetSyntheticPredictor(75))
	if err != nil {
		return err
	}
	for v := 0; v < 6; v++ {
		spec := vmtherm.FleetHeavyVMSpec(fmt.Sprintf("hot-%02d", v), 4, 8)
		if err := live.PlaceAt("r0-h0", spec); err != nil {
			return err
		}
	}
	var readings []vmtherm.FleetReading
	for r := 0; r < rounds; r++ {
		if _, err := live.RunRound(); err != nil {
			return err
		}
		live.ViewSnapshot(func(s *vmtherm.FleetSnapshot) {
			for _, id := range live.Hosts() {
				if rd, ok := s.Latest[id]; ok {
					readings = append(readings, rd)
				}
			}
		})
	}
	fmt.Printf("recorded %d readings over %d live rounds\n", len(readings), rounds)

	// 2. Serialize + reload through the trace CSV format (what
	// `vmtherm-fleetd -source trace -trace run.csv` consumes).
	var buf bytes.Buffer
	if err := vmtherm.WriteTrace(&buf, readings); err != nil {
		return err
	}
	fmt.Printf("trace CSV: %d bytes\n", buf.Len())
	trace, err := vmtherm.ReadTrace(&buf)
	if err != nil {
		return err
	}

	// 3. Replay twice; the loop must behave identically both times.
	replay := func() (flaggedRound int, maxPred float64, err error) {
		src, err := vmtherm.NewTraceSource(trace, vmtherm.TraceOptions{})
		if err != nil {
			return 0, 0, err
		}
		rcfg := vmtherm.DefaultFleetConfig()
		rcfg.ThresholdC = thresholdC
		ctl, err := vmtherm.NewFleetWithSource(rcfg, src, vmtherm.FleetSyntheticPredictor(75))
		if err != nil {
			return 0, 0, err
		}
		for r := 1; r <= rounds; r++ {
			rep, err := ctl.RunRound()
			if err != nil {
				return 0, 0, err
			}
			if rep.MaxPredictedC > maxPred {
				maxPred = rep.MaxPredictedC
			}
			if flaggedRound == 0 && rep.Hotspots > 0 {
				flaggedRound = r
			}
		}
		return flaggedRound, maxPred, nil
	}
	f1, m1, err := replay()
	if err != nil {
		return err
	}
	f2, m2, err := replay()
	if err != nil {
		return err
	}
	fmt.Printf("replay 1: hotspot flagged at round %d, max predicted %.2f°C\n", f1, m1)
	fmt.Printf("replay 2: hotspot flagged at round %d, max predicted %.2f°C\n", f2, m2)
	if f1 != f2 || m1 != m2 {
		return fmt.Errorf("replays diverged: determinism broken")
	}
	if f1 == 0 {
		return fmt.Errorf("replayed loop never flagged the overloaded host")
	}
	fmt.Println("replays identical: recorded telemetry drives the same proactive loop, deterministically")
	return nil
}
