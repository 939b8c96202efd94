// vmtherm-fleetd runs the fleet thermal control plane end to end against a
// pluggable telemetry source: per-host readings stream through the bounded
// ingest pipeline into the unified session engine, every round
// batch-predicts ψ_stable anchors through the SVM batch kernel, rolls
// Δ_gap-ahead temperatures into a hotspot map, reconciles migration
// proposals, and places incoming VM requests thermally — printing one
// summary line per round.
//
// Sources (-source):
//
//	sim     a simulated datacenter of racks × hosts (default); the loop runs
//	        simulated time faster than real time and the final summary
//	        reports the speedup
//	trace   deterministic replay of a recorded trace CSV (-trace), at
//	        optional real-time pacing (-speed); recorded experiments become
//	        first-class workloads
//	scrape  live ingestion from any Prometheus-exposition endpoint
//	        (-scrape-url), e.g. a Kepler node exporter or another vmtherm's
//	        /metrics; rounds pace to wall-clock Δ_update
//
// Usage:
//
//	vmtherm-fleetd -racks 8 -hosts 32 -rounds 40          # train a fast model, run
//	vmtherm-fleetd -model model.svm -rounds 40            # use a pretrained model
//	vmtherm-fleetd -synthetic -rounds 40                  # no SVM, physics stand-in
//	vmtherm-fleetd -addr :8080 -rounds 0                  # serve /v1/fleet/* forever
//	vmtherm-fleetd -record run.csv -rounds 40             # capture the run as a trace
//	vmtherm-fleetd -source trace -trace run.csv -synthetic
//	vmtherm-fleetd -source scrape -scrape-url http://kepler:9102/metrics -synthetic
//	vmtherm-fleetd -anchor-cache=false                    # A/B the anchor cache off
//	vmtherm-fleetd -source trace -trace run.csv -synthetic -checkpoint-file /var/lib/vmtherm/ckpt
//	                                                      # crash-safe: restart resumes warm
//	vmtherm-fleetd -rounds 40 -checkpoint-file simckpt    # simulated fleet: anchor cache survives restarts
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"vmtherm"
	"vmtherm/internal/daemon"
	"vmtherm/internal/predictserver"
	"vmtherm/internal/scenario"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("vmtherm-fleetd: ")
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

// loopFlags are the flags only fleetd has, on top of the fleet flags it
// shares with predictd (daemon.Bind): the round budget, the simulated
// tenant stream, the model it trains when none is given, and what it records
// and grades.
type loopFlags struct {
	rounds, arrivals, migrations, hotseed, trainCases int
	synthetic, pace                                   bool
	record, scenario, scenarioOut                     string
}

// bindFlags declares fleetd's whole flag surface on fs. fleetd always runs a
// fleet, simulated unless told otherwise, as fast as it can — hence its
// defaults for the shared flags.
func bindFlags(fs *flag.FlagSet) (*daemon.Flags, *loopFlags) {
	o := new(loopFlags)
	fs.IntVar(&o.rounds, "rounds", 40, "control rounds to run (0 = until interrupted or trace end)")
	fs.IntVar(&o.arrivals, "arrivals", 2, "VM requests submitted per round (sim source)")
	fs.IntVar(&o.migrations, "migrations", 1, "max migrations applied per round")
	fs.IntVar(&o.hotseed, "hotseed", 0, "force-place this many heavy VMs on r0-h0 to provoke a hotspot (sim source)")
	fs.IntVar(&o.trainCases, "train-cases", 24, "simulated experiments to train the fast model on (when neither -model nor -synthetic is given)")
	fs.BoolVar(&o.synthetic, "synthetic", false, "skip the SVM; use a physics stand-in predictor")
	fs.BoolVar(&o.pace, "pace", false, "pace rounds to wall-clock Δ_update (default when serving forever or scraping)")
	fs.StringVar(&o.record, "record", "", "tee the live telemetry stream to a trace CSV replayable with -source trace")
	fs.StringVar(&o.scenario, "scenario", "", "run a scripted thermal emergency: a built-in name (see docs/SCENARIOS.md) or a JSON spec file; sim source only, exits non-zero when the run fails its grade")
	fs.StringVar(&o.scenarioOut, "scenario-out", "", "write the graded scenario report as JSON here (requires -scenario)")
	return daemon.Bind(fs, daemon.Defaults{Source: "sim", Racks: 8, Hosts: 32}), o
}

func run() error {
	shared, own := bindFlags(flag.CommandLine)
	flag.Parse()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var model *vmtherm.StablePredictor
	var predict vmtherm.BatchCasePredictor
	switch {
	case own.synthetic:
		predict = vmtherm.FleetSyntheticPredictor(75)
		log.Print("using synthetic physics predictor (no SVM)")
	case shared.Model != "":
		var err error
		if model, err = daemon.LoadModel(shared.Model); err != nil {
			return err
		}
		log.Printf("loaded stable model from %s", shared.Model)
	default:
		log.Printf("training fast stable model on %d simulated experiments...", own.trainCases)
		cases, err := vmtherm.GenerateCases(vmtherm.DefaultGenOptions(), shared.Seed, "fleet-train", own.trainCases)
		if err != nil {
			return err
		}
		recs, err := vmtherm.BuildDataset(ctx, cases, vmtherm.DefaultBuildOptions(shared.Seed))
		if err != nil {
			return err
		}
		model, err = vmtherm.TrainStable(ctx, recs, vmtherm.FastStableConfig())
		if err != nil {
			return err
		}
	}
	if predict == nil {
		predict = vmtherm.FleetStablePredictor(model, 1800)
	}

	cfg := shared.Config()
	cfg.MaxMigrationsPerRound = own.migrations
	ctl, err := shared.NewController(cfg, predict)
	if err != nil {
		return err
	}

	// -record: tee every reading the source emits into a recorder, and write
	// the capture as a replayable trace CSV when the loop ends — closing the
	// capture→replay loop (-source trace) for operators.
	var recorder *vmtherm.TelemetryRecorder
	var recMu sync.Mutex
	if own.record != "" {
		recorder = &vmtherm.TelemetryRecorder{}
		// The tee sees both the round loop's source emissions and concurrent
		// HTTP ingest pushes (-addr); Recorder itself is not synchronized.
		// The capture is in-memory until exit, so it is bounded: past the
		// cap the recording stops (what was captured still gets written)
		// rather than growing a daemon's RAM without limit.
		const maxRecorded = 2 << 20
		warned := false
		ctl.TeeTelemetry(func(r vmtherm.FleetReading) bool {
			recMu.Lock()
			defer recMu.Unlock()
			if len(recorder.Readings) >= maxRecorded {
				if !warned {
					warned = true
					log.Printf("recording capped at %d readings; later telemetry is not captured", maxRecorded)
				}
				return true
			}
			return recorder.Emit(r)
		})
		log.Printf("recording telemetry to %s (cap %d readings)", own.record, maxRecorded)
	}
	opts := loopOptions{rounds: own.rounds, addr: shared.Addr, model: model}
	switch {
	case own.scenario != "":
		// A scripted thermal emergency: the scenario engine seeds its own
		// baseline load and owns the timeline, so the usual arrival stream
		// and hotseed are skipped — determinism is the whole point.
		if shared.Source != "sim" {
			return fmt.Errorf("-scenario requires -source sim (got %q)", shared.Source)
		}
		spec, err := scenario.Load(own.scenario)
		if err != nil {
			return err
		}
		if opts.scenario, err = scenario.New(spec, ctl.Controller); err != nil {
			return err
		}
		// The spec owns the round budget: a truncated timeline would grade a
		// half-run emergency, so -rounds is ignored in scenario mode.
		log.Printf("scenario %s: %s (%d rounds, onset round %d)",
			spec.Name, spec.Description, spec.Rounds, spec.Onset())
		opts.rounds, opts.pace, opts.scenarioOut = spec.Rounds, own.pace, own.scenarioOut
	case own.scenarioOut != "":
		return errors.New("-scenario-out requires -scenario")
	case shared.Source == "sim":
		// An optional adversarial seed: pile heavy VMs onto one machine so
		// the proactive loop (flag from prediction → propose → migrate) is
		// visible.
		for v := 0; v < own.hotseed; v++ {
			spec := vmtherm.FleetHeavyVMSpec(fmt.Sprintf("hotseed-%02d", v), 4, 8)
			if err := ctl.PlaceAt("r0-h0", spec); err != nil {
				return fmt.Errorf("hotseed: %w", err)
			}
		}
		// Seed the fleet with an initial tenant population (~40% of
		// capacity) placed thermally, then feed fresh arrivals every round.
		n := cfg.Racks * cfg.HostsPerRack
		arrivalStream, err := arrivalSpecs(shared.Seed, n*2)
		if err != nil {
			return err
		}
		next := 0
		for i := 0; i < n/2 && next < len(arrivalStream); i++ {
			if !ctl.Submit(arrivalStream[next]) {
				log.Printf("admission queue refused seed VM %d/%d; stopping seeding", i, n/2)
				break
			}
			next++
		}
		opts.pace = own.pace || (own.rounds == 0 && shared.Addr != "")
		opts.arrivals = func() { submitArrivals(ctl.Controller, arrivalStream, &next, own.arrivals) }
	default:
		opts.pace = own.pace || shared.Source == "scrape" || (ctl.Trace != nil && shared.Speed > 0)
	}
	runErr := runLoop(ctx, ctl, opts)
	// The shutdown contract: the in-flight round has finished (runLoop
	// returned) and HTTP has drained, so the final checkpoint captures
	// everything the next process needs to continue warm.
	runErr = errors.Join(runErr, ctl.Close())
	if recorder == nil {
		return runErr
	}
	// Detach the tee, then save under the same mutex the tee appends
	// with: an ingest push that outlived the HTTP shutdown timeout must
	// not race the sort/write.
	ctl.TeeTelemetry(nil)
	recMu.Lock()
	defer recMu.Unlock()
	if err := saveRecording(own.record, recorder); err != nil {
		return errors.Join(runErr, fmt.Errorf("recording: %w", err))
	}
	log.Printf("recorded %d readings to %s (replay with -source trace -trace %s)",
		len(recorder.Readings), own.record, own.record)
	return runErr
}

// saveRecording writes a telemetry capture as a replayable trace CSV in
// canonical (time, host) order.
func saveRecording(path string, rec *vmtherm.TelemetryRecorder) error {
	vmtherm.SortReadings(rec.Readings)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = vmtherm.WriteTrace(f, rec.Readings)
	if cerr := f.Close(); cerr != nil && err == nil {
		err = cerr
	}
	return err
}

// loopOptions parameterize the round loop shared by every source.
type loopOptions struct {
	rounds int
	// pace holds each round to the controller's wall-clock pacing interval.
	pace  bool
	addr  string
	model *vmtherm.StablePredictor
	// arrivals, when set, submits the round's VM requests (sim source).
	arrivals func()
	// scenario, when set, owns the round loop: each round applies the due
	// faults before running, and the run ends with a graded report
	// (written to scenarioOut when set; a failed grade fails the process).
	scenario    *scenario.Runner
	scenarioOut string
}

// submitArrivals feeds the round's VM requests, stopping early when the
// admission queue refuses one (the refused VM retries next round).
func submitArrivals(ctl *vmtherm.FleetController, stream []vmtherm.VMSpec, next *int, n int) {
	for a := 0; a < n && *next < len(stream); a++ {
		if !ctl.Submit(stream[*next]) {
			return
		}
		*next++
	}
}

// runLoop serves the fleet API (optionally; an address that cannot be bound
// fails here, before round 1) and executes control rounds until the round
// budget, the trace, the context or the HTTP server runs out. Pacing and the
// real-time accounting use the controller's resolved Δ_update, never the raw
// -update flag (0 there means "the default").
func runLoop(ctx context.Context, ctl *daemon.Controller, opts loopOptions) (runErr error) {
	// ready gates /readyz: true after the first completed round (cold or
	// restored, the serving state is only trustworthy once a round has run),
	// false again when the loop exits — before the HTTP drain, so load
	// balancers stop routing to a daemon that is about to stop serving.
	var ready atomic.Bool
	var httpStopped <-chan struct{} // nil (never ready) when not serving
	if opts.addr != "" {
		if opts.model == nil {
			return fmt.Errorf("-addr requires a stable model (drop -synthetic)")
		}
		sopts := []predictserver.Option{predictserver.WithFleet(ctl.Controller), predictserver.WithReadiness(ready.Load)}
		if opts.scenario != nil {
			sopts = append(sopts, predictserver.WithScenario(opts.scenario.Status))
		}
		if ctl.Ckpt != nil {
			sopts = append(sopts, predictserver.WithCheckpoint(ctl.Ckpt.Status))
		}
		srv, err := predictserver.New(opts.model, sopts...)
		if err != nil {
			return err
		}
		defer srv.Close()
		httpSrv, err := daemon.Listen(opts.addr, srv.Handler())
		if err != nil {
			return err
		}
		defer func() {
			if err := httpSrv.Drain(); err != nil {
				runErr = errors.Join(runErr, fmt.Errorf("http: %w", err))
			}
		}()
		httpStopped = httpSrv.Done()
		log.Printf("serving fleet API and /metrics on %s", httpSrv.Addr())
	}

	updateS := ctl.Config().UpdateEveryS
	if opts.pace {
		log.Printf("pacing rounds to wall-clock %.3gs", ctl.PaceS)
	}
	start := time.Now()
	var simSeconds float64
	var totalHotspots, totalMoves, totalPlaced int
loop:
	for round := 1; opts.rounds == 0 || round <= opts.rounds; round++ {
		select {
		case <-ctx.Done():
			log.Print("interrupted")
			break loop
		case <-httpStopped:
			log.Print("http server stopped")
			break loop
		default:
		}
		if ctl.Trace != nil && ctl.Trace.Done() {
			log.Print("trace exhausted")
			break loop
		}
		if opts.arrivals != nil {
			opts.arrivals()
		}
		runRound := ctl.RunRound
		if opts.scenario != nil {
			runRound = opts.scenario.Step
		}
		rep, err := runRound()
		if err != nil {
			// Break instead of returning so the exit path below still runs:
			// readiness flips off, the scenario report (if any) is written,
			// and the caller still cuts its final checkpoint and flushes.
			runErr = err
			break loop
		}
		ready.Store(true)
		simSeconds += updateS
		totalHotspots += rep.Hotspots
		totalMoves += rep.AppliedMoves
		totalPlaced += rep.Placements
		speedup := updateS / rep.Latency.Seconds()
		line := fmt.Sprintf("round %3d t=%5.0fs | sessions %3d/%3d | telemetry %4d (drops %d, superseded %d) | stale %2d | anchors %3dh/%dm fan %d | hotspots %2d (max %.1f°C) | placed %d queued %d rejected %d | moves %d/%d | %6.1fms (ctl %.1fms) | %6.0f× realtime",
			rep.Round, rep.SimTimeS, rep.SessionsLive, rep.Hosts,
			rep.TelemetryDrained, rep.DroppedTotal, rep.SupersededTotal, rep.StaleHosts,
			rep.AnchorHits, rep.AnchorMisses, rep.AnchorFanout,
			rep.Hotspots, rep.MaxPredictedC, rep.Placements, rep.Queued, rep.Rejections,
			rep.AppliedMoves, rep.ProposedMoves,
			float64(rep.Latency.Microseconds())/1000,
			float64(rep.ControlLatency.Microseconds())/1000, speedup)
		if ctl.StreamingEnabled() {
			line += fmt.Sprintf(" | stream %d (+%d inline, %d deferred) drift %d",
				rep.StreamApplied, rep.StreamCreated, rep.StreamDeferred, rep.StreamHotDrift)
		}
		if opts.scenario != nil {
			st := opts.scenario.Status()
			line += fmt.Sprintf(" | scn %s %d/%d faults %d", st.Name, st.Round, st.TotalRounds, st.FaultsActive)
			if st.Contained {
				line += " contained"
			}
		}
		if rep.SourceError != "" {
			line += " | SOURCE ERROR: " + rep.SourceError
		}
		if n := len(rep.RecentErrors); n > 0 {
			line += fmt.Sprintf(" | errs %d (last: %s)", n, rep.RecentErrors[n-1])
		}
		fmt.Println(line)
		if _, err := ctl.Ckpt.SaveIfDue(ctl.Checkpoint, false); err != nil {
			log.Printf("checkpoint: %v", err)
		}
		if opts.pace {
			wait := time.Duration(ctl.PaceS*float64(time.Second)) - rep.Latency
			if wait > 0 {
				select {
				case <-ctx.Done():
				case <-time.After(wait):
				}
			}
		}
	}
	// Not ready before the deferred HTTP drain: in-flight requests finish,
	// new ones see 503 from the balancer's health checks.
	ready.Store(false)
	wall := time.Since(start)
	log.Printf("processed %.0fs of fleet time in %v (%.0f× real time): %d hotspot-rounds, %d migrations, %d placements",
		simSeconds, wall.Round(time.Millisecond), simSeconds/wall.Seconds(),
		totalHotspots, totalMoves, totalPlaced)
	if wall.Seconds() < simSeconds {
		log.Printf("OK: a %.0fs calibration interval is sustainable in real time at this fleet size", updateS)
	} else if !opts.pace {
		log.Printf("WARNING: control loop slower than real time at this fleet size")
	}
	if opts.scenario != nil {
		// The report is written even when a round errored out above: a
		// half-run emergency's partial grade is still evidence, and losing
		// it on the failure path is exactly when operators need it most.
		grade := opts.scenario.Report()
		if opts.scenarioOut != "" {
			if err := os.WriteFile(opts.scenarioOut, grade.JSON(), 0o644); err != nil {
				log.Printf("writing scenario report: %v", err)
				if runErr == nil {
					runErr = fmt.Errorf("writing scenario report: %w", err)
				}
			} else {
				log.Printf("scenario report written to %s", opts.scenarioOut)
			}
		}
		log.Printf("scenario %s: flagged r%d, crossed r%d (lead %d), contained %v in %d rounds, %d/%d migrations, %d rejected readings, fp rate %.2f",
			grade.Name, grade.FirstFlagRound, grade.MeasuredCrossRound, grade.PredictedLeadRounds,
			grade.Contained, grade.ContainmentRounds, grade.MigrationsApplied, grade.MigrationBudget,
			grade.ReadingsRejected, grade.FalsePositiveRate)
		if runErr != nil {
			return runErr
		}
		if !grade.Passed {
			return fmt.Errorf("scenario %s FAILED its grade: %v", grade.Name, grade.Failures)
		}
		log.Printf("scenario %s PASSED", grade.Name)
	}
	return runErr
}

// arrivalSpecs generates a deterministic stream of VM requests, using one
// oversized generated case as a convenient spec factory.
func arrivalSpecs(seed int64, count int) ([]vmtherm.VMSpec, error) {
	opts := vmtherm.DefaultGenOptions()
	opts.VMCountMin, opts.VMCountMax = count, count
	opts.Host.Cores = 1 << 20
	opts.Host.MemoryGB = 1 << 24
	opts.Dynamic = true
	c, err := vmtherm.GenerateCase(opts, seed, "fleet-arrivals")
	if err != nil {
		return nil, err
	}
	return c.VMs, nil
}
