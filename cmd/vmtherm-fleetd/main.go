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
//	none    no fleet: the prediction API alone over the model, on -addr,
//	        until SIGTERM
//
// A run with no round budget (-rounds 0) is a serving daemon: a failed round
// is logged and the next one runs, and with -addr the API keeps serving the
// last snapshot after a non-looping trace runs out, until SIGTERM. A flag the
// chosen source never reads is refused before anything runs.
//
// Usage:
//
//	vmtherm-fleetd -racks 8 -hosts 32 -rounds 40          # train a fast model, run
//	vmtherm-fleetd -model model.svm -rounds 40            # use a pretrained model
//	vmtherm-fleetd -synthetic -rounds 40                  # no SVM, physics stand-in
//	vmtherm-fleetd -addr :8080 -rounds 0                  # serve /v1/fleet/* forever
//	vmtherm-fleetd -source none -model model.svm -addr :8080  # prediction API only
//	vmtherm-fleetd -record run.csv -rounds 40             # capture the run as a trace
//	vmtherm-fleetd -source trace -trace run.csv -synthetic
//	vmtherm-fleetd -source scrape -scrape-url http://kepler:9102/metrics -synthetic
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
	"regexp"
	"slices"
	"strings"
	"sync"
	"syscall"
	"time"

	"vmtherm/internal/core"
	"vmtherm/internal/daemon"
	"vmtherm/internal/dataset"
	"vmtherm/internal/fleet"
	"vmtherm/internal/predictserver"
	"vmtherm/internal/scenario"
	"vmtherm/internal/telemetry"
	"vmtherm/internal/workload"
)

// loopFlags are fleetd's flags on top of the fleet flags (daemon.Bind): the
// round budget, the simulated tenant stream, the model it trains when none
// is given, and what it records and grades.
type loopFlags struct {
	rounds, arrivals, migrations, hotseed, trainCases int
	synthetic, pace                                   bool
	record, scenario, scenarioOut                     string
}

// bindFlags declares fleetd's whole flag surface on fs.
func bindFlags(fs *flag.FlagSet) (*daemon.Flags, *loopFlags) {
	o := new(loopFlags)
	fs.IntVar(&o.rounds, "rounds", 40, "control rounds to run (0 = serve until interrupted: round errors are logged, and with -addr the API outlives a trace's end)")
	fs.IntVar(&o.arrivals, "arrivals", 2, "VM requests submitted per round (-source sim)")
	fs.IntVar(&o.migrations, "migrations", 1, "max migrations applied per round")
	fs.IntVar(&o.hotseed, "hotseed", 0, "force-place this many heavy VMs on r0-h0 to provoke a hotspot (-source sim)")
	fs.IntVar(&o.trainCases, "train-cases", 24, "simulated experiments to train the fast model on (when neither -model nor -synthetic is given)")
	fs.BoolVar(&o.synthetic, "synthetic", false, "skip the SVM; use a physics stand-in predictor")
	fs.BoolVar(&o.pace, "pace", false, "pace rounds to wall-clock Δ_update (default when serving forever or scraping)")
	fs.StringVar(&o.record, "record", "", "tee the live telemetry stream to a trace CSV replayable with -source trace")
	fs.StringVar(&o.scenario, "scenario", "", "run a scripted thermal emergency: a built-in name (see docs/SCENARIOS.md) or a JSON spec file; exits non-zero when the run fails its grade (-source sim)")
	fs.StringVar(&o.scenarioOut, "scenario-out", "", "write the graded scenario report as JSON here (requires -scenario)")
	return daemon.Bind(fs), o
}

// needs matches the end of a usage text that names what the flag needs:
// "(-source trace or scrape)" or "(requires -checkpoint-file)".
var needs = regexp.MustCompile(`\((?:-source ([a-z ]+)|requires -([a-z-]+))\)$`)

// modelOnly are the flags -source none reads: it loads or trains a model
// and serves it.
var modelOnly = map[string]bool{"addr": true, "model": true, "source": true, "seed": true, "train-cases": true}

// refuseIgnored fails on an unknown -source, on a source without its input,
// and on the first flag set on the command line that the run would silently
// ignore: under -source none each fleet flag, -train-cases beside -model or
// -synthetic, otherwise each flag whose usage text names a source or a flag
// the run does not have.
func refuseIgnored(fs *flag.FlagSet, source string) (err error) {
	if !slices.Contains([]string{"sim", "trace", "scrape", "none"}, source) {
		return fmt.Errorf("unknown -source %q (want sim, trace, scrape or none)", source)
	}
	has := func(name string) bool { v := fs.Lookup(name).Value.String(); return v != "" && v != "false" }
	fs.Visit(func(f *flag.Flag) {
		m := needs.FindStringSubmatch(f.Usage)
		switch {
		case err != nil:
		case source == "none" && !modelOnly[f.Name]:
			err = fmt.Errorf("-%s requires a fleet loop (-source sim, trace or scrape, not none)", f.Name)
		case f.Name == "train-cases" && (has("model") || has("synthetic")):
			err = errors.New("-train-cases is ignored with -model or -synthetic: it sizes the model trained when neither is given")
		case m == nil:
		case m[1] != "" && !slices.Contains(strings.Split(m[1], " or "), source):
			err = fmt.Errorf("-%s requires -source %s (got %q)", f.Name, m[1], source)
		case m[2] != "" && !has(m[2]):
			err = fmt.Errorf("-%s requires -%s", f.Name, m[2])
		}
	})
	switch {
	case err != nil:
	case source == "none" && !has("addr"):
		err = errors.New("-source none requires -addr: it serves the prediction API and runs nothing else")
	case source == "trace" && !has("trace"):
		err = errors.New("-source trace requires -trace <csv>")
	case source == "scrape" && !has("scrape-url"):
		err = errors.New("-source scrape requires -scrape-url <endpoint>")
	}
	return err
}

// refuseBadValues fails on the first flag set on the command line whose
// value alone the fleet configuration refuses, naming the flag: each is set
// over the defaults on a fresh flag set and checked as the controller would
// check it.
func refuseBadValues(fs *flag.FlagSet) (err error) {
	fs.Visit(func(f *flag.Flag) {
		one := flag.NewFlagSet(fs.Name(), flag.ContinueOnError)
		shared, own := bindFlags(one)
		if err == nil && one.Set(f.Name, f.Value.String()) == nil {
			if cerr := fleetConfig(shared, own).Validate(); cerr != nil {
				err = fmt.Errorf("-%s %s: %w", f.Name, f.Value, cerr)
			}
		}
	})
	return err
}

// fleetConfig is the fleet configuration the flags describe.
func fleetConfig(shared *daemon.Flags, own *loopFlags) fleet.Config {
	cfg := shared.Config()
	cfg.MaxMigrationsPerRound = own.migrations
	return cfg
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("vmtherm-fleetd: ")
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, os.Args[1:])
	stop()
	if err != nil {
		log.Fatal(err)
	}
}

// run is the daemon until ctx is cancelled (SIGTERM or SIGINT in main).
func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("vmtherm-fleetd", flag.ExitOnError)
	shared, own := bindFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := refuseIgnored(fs, shared.Source); err != nil {
		return err
	}
	if err := refuseBadValues(fs); err != nil {
		return err
	}

	var model *core.StablePredictor
	var predict fleet.Predictor
	switch {
	case own.synthetic:
		predict = fleet.SyntheticStablePredictor(75)
		log.Print("using synthetic physics predictor (no SVM)")
	case shared.Model != "":
		var err error
		if model, err = daemon.LoadModel(shared.Model); err != nil {
			return err
		}
		log.Printf("loaded stable model from %s", shared.Model)
	default:
		log.Printf("training fast stable model on %d simulated experiments...", own.trainCases)
		var err error
		if model, err = daemon.TrainFast(ctx, shared.Seed, own.trainCases); err != nil {
			return err
		}
	}
	if shared.Source == "none" {
		return serveModel(ctx, shared.Addr, model)
	}
	cfg := fleetConfig(shared, own)
	if !own.synthetic {
		predict = fleet.StableBatchPredictor(model, cfg.HorizonS)
	}
	ctl, err := shared.NewController(cfg, predict)
	if err != nil {
		return err
	}

	// -record: tee every reading the source emits into a recorder, and write
	// the capture as a replayable trace CSV when the loop ends — closing the
	// capture→replay loop (-source trace) for operators.
	var recorder *telemetry.Recorder
	var recMu sync.Mutex
	if own.record != "" {
		recorder = &telemetry.Recorder{}
		// The tee sees both the round loop's source emissions and concurrent
		// HTTP ingest pushes (-addr); Recorder itself is not synchronized.
		// The capture is in-memory until exit, so it is bounded: past the
		// cap the recording stops (what was captured still gets written)
		// rather than growing a daemon's RAM without limit.
		const maxRecorded = 2 << 20
		warned := false
		ctl.TeeTelemetry(func(r fleet.Reading) bool {
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

	// A budgeted run stops on its first failed round; an open-ended one is a
	// serving daemon, which logs the failure and carries on.
	loop := daemon.Loop{Rounds: own.rounds, StopOnError: own.rounds != 0}
	var drill *scenario.Runner
	var serverOpts []predictserver.Option
	switch {
	case own.scenario != "":
		// A scripted thermal emergency: the scenario engine seeds its own
		// baseline load and owns the timeline, so the usual arrival stream
		// and hotseed are skipped — determinism is the whole point.
		spec, err := scenario.Load(own.scenario)
		if err != nil {
			return err
		}
		if drill, err = scenario.New(spec, ctl.Controller); err != nil {
			return err
		}
		// The spec owns the round budget: a truncated timeline would grade a
		// half-run emergency, so -rounds is ignored in scenario mode.
		log.Printf("scenario %s: %s (%d rounds, onset round %d)",
			spec.Name, spec.Description, spec.Rounds, spec.Onset())
		loop.Step, loop.Rounds, loop.StopOnError, loop.Pace = drill.Step, spec.Rounds, true, own.pace
		serverOpts = append(serverOpts, predictserver.WithScenario(drill.Status))
	case shared.Source == "sim":
		// An optional adversarial seed: pile heavy VMs onto one machine so
		// the proactive loop (flag from prediction → propose → migrate) is
		// visible.
		for v := 0; v < own.hotseed; v++ {
			spec := fleet.HeavyVMSpec(fmt.Sprintf("hotseed-%02d", v), 4, 8)
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
		loop.Pace = own.pace || (own.rounds == 0 && shared.Addr != "")
		// The round's VM requests, stopping early when the admission queue
		// refuses one (the refused VM retries next round).
		loop.Before = func() {
			for a := 0; a < own.arrivals && next < len(arrivalStream) && ctl.Submit(arrivalStream[next]); a++ {
				next++
			}
		}
	default:
		loop.Pace = own.pace || shared.Source == "scrape" || (ctl.Trace != nil && shared.Speed > 0)
	}

	// An address that cannot be bound fails here, before round 1.
	rt, err := daemon.Start(shared.Addr, model, ctl, serverOpts...)
	if err != nil {
		return err
	}
	if shared.Addr != "" {
		log.Printf("serving fleet API and /metrics on %s", rt.Addr())
	}
	if loop.Pace {
		log.Printf("pacing rounds to wall-clock %.3gs", ctl.PaceS)
	}
	// The real-time accounting uses the controller's resolved Δ_update, never
	// the raw -update flag (0 there means "the default").
	updateS := ctl.Config().UpdateEveryS
	start := time.Now()
	var simSeconds float64
	var totalHotspots, totalMoves, totalPlaced int
	loop.After = func(rep fleet.RoundReport) {
		simSeconds += updateS
		totalHotspots += rep.Hotspots
		totalMoves += rep.AppliedMoves
		totalPlaced += rep.Placements
		fmt.Println(roundLine(rep, updateS, ctl.Streaming(), drill))
	}
	runErr := rt.Loop(ctx, loop)
	if ctx.Err() != nil {
		log.Print("interrupted")
	}
	wall := time.Since(start)
	if simSeconds == 0 {
		log.Printf("no round completed in %v", wall.Round(time.Millisecond))
	} else {
		log.Printf("processed %.0fs of fleet time in %v (%.0f× real time): %d hotspot-rounds, %d migrations, %d placements",
			simSeconds, wall.Round(time.Millisecond), simSeconds/wall.Seconds(),
			totalHotspots, totalMoves, totalPlaced)
		if wall.Seconds() < simSeconds {
			log.Printf("OK: a %.0fs calibration interval is sustainable in real time at this fleet size", updateS)
		} else if !loop.Pace {
			log.Printf("WARNING: control loop slower than real time at this fleet size")
		}
	}
	if drill != nil {
		runErr = gradeScenario(drill, own.scenarioOut, runErr)
	}
	if loop.Rounds == 0 && shared.Addr != "" && ctl.Trace != nil && ctl.Trace.Done() {
		// A serving daemon keeps answering from its last snapshot after a
		// non-looping trace runs out.
		log.Print("serving the last snapshot until interrupted")
		untilStopped(ctx, rt)
	}
	// The shutdown contract (daemon.Runtime.Shutdown): /readyz flips to 503,
	// HTTP drains, the loop has exited, and only then is the final checkpoint
	// cut — a round that errored out above still gets all of it.
	runErr = errors.Join(runErr, rt.Shutdown())
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

// serveModel is -source none: the prediction API over model with no fleet,
// ready at once, until ctx is cancelled or the listener stops on its own.
func serveModel(ctx context.Context, addr string, model *core.StablePredictor) error {
	rt, err := daemon.Start(addr, model, nil)
	if err != nil {
		return err
	}
	log.Printf("serving the prediction API on %s (no fleet)", rt.Addr())
	untilStopped(ctx, rt)
	return rt.Shutdown()
}

// untilStopped blocks until ctx is cancelled or rt's listener stops.
func untilStopped(ctx context.Context, rt *daemon.Runtime) {
	select {
	case <-ctx.Done():
		log.Print("shutting down")
	case <-rt.Done():
		log.Print("http server stopped")
	}
}

// saveRecording writes a telemetry capture as a replayable trace CSV in
// canonical (time, host) order.
func saveRecording(path string, rec *telemetry.Recorder) error {
	telemetry.SortReadings(rec.Readings)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = dataset.WriteTrace(f, rec.Readings)
	if cerr := f.Close(); cerr != nil && err == nil {
		err = cerr
	}
	return err
}

// roundLine is the one stdout line per completed round.
func roundLine(rep fleet.RoundReport, updateS float64, streaming bool, drill *scenario.Runner) string {
	speedup := updateS / rep.Latency.Seconds()
	line := fmt.Sprintf("round %3d t=%5.0fs | sessions %3d/%3d | telemetry %4d (drops %d, superseded %d) | stale %2d | anchors %3dh/%dm fan %d | hotspots %2d (max %.1f°C) | placed %d queued %d rejected %d | moves %d/%d | %6.1fms (ctl %.1fms) | %6.0f× realtime",
		rep.Round, rep.SimTimeS, rep.SessionsLive, rep.Hosts,
		rep.TelemetryDrained, rep.DroppedTotal, rep.SupersededTotal, rep.StaleHosts,
		rep.AnchorHits, rep.AnchorMisses, rep.AnchorFanout,
		rep.Hotspots, rep.MaxPredictedC, rep.Placements, rep.Queued, rep.Rejections,
		rep.AppliedMoves, rep.ProposedMoves,
		float64(rep.Latency.Microseconds())/1000,
		float64(rep.ControlLatency.Microseconds())/1000, speedup)
	if streaming {
		line += fmt.Sprintf(" | stream %d (%d deferred) drift %d",
			rep.StreamApplied, rep.StreamDeferred, rep.StreamHotDrift)
	}
	if drill != nil {
		st := drill.Status()
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
	return line
}

// gradeScenario writes and logs the drill's graded report and folds the
// grade into the run's error. The report is written even when a round
// errored out: a half-run emergency's partial grade is still evidence, and
// losing it on the failure path is exactly when operators need it most.
func gradeScenario(drill *scenario.Runner, out string, runErr error) error {
	grade := drill.Report()
	if out != "" {
		if err := os.WriteFile(out, grade.JSON(), 0o644); err != nil {
			log.Printf("writing scenario report: %v", err)
			if runErr == nil {
				runErr = fmt.Errorf("writing scenario report: %w", err)
			}
		} else {
			log.Printf("scenario report written to %s", out)
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
	return nil
}

// arrivalSpecs generates a deterministic stream of VM requests, using one
// oversized generated case as a convenient spec factory.
func arrivalSpecs(seed int64, count int) ([]workload.VMSpec, error) {
	opts := workload.DefaultGenOptions()
	opts.VMCountMin, opts.VMCountMax = count, count
	opts.Host.Cores = 1 << 20
	opts.Host.MemoryGB = 1 << 24
	opts.Dynamic = true
	c, err := workload.GenerateCase(opts, seed, "fleet-arrivals")
	if err != nil {
		return nil, err
	}
	return c.VMs, nil
}
