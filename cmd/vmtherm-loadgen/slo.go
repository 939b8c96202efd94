package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"vmtherm/internal/daemon"
	"vmtherm/internal/fleet"
	"vmtherm/internal/predictclient"
	"vmtherm/internal/scenario"
	"vmtherm/internal/sloharness"
)

// sloFlags is the whole flag surface. The step-shape flags bind straight
// onto the sloharness.Config every profile runs under, the in-process stack
// knobs onto its fleet.Config: a flag becomes a field in one place.
type sloFlags struct {
	addr, mode, endpoints, batches string
	outJSON, outMD, baseline       string
	batch, workers, ingestHosts    int
	seed                           int64
	inprocess                      bool

	step  sloharness.Config // SLO.Limit 0 = the endpoint's default
	fleet fleet.Config      // the -inprocess fleet (the capacity matrix dimensions)

	// Scenario-under-load: a scripted thermal emergency plays against the
	// in-process fleet while the profiler drives serving load.
	scenario, scenarioOut string
}

func bindFlags(fs *flag.FlagSet) *sloFlags {
	f := &sloFlags{fleet: fleet.DefaultConfig()}
	fs.StringVar(&f.addr, "addr", "http://127.0.0.1:8080", "predictd base URL")
	fs.StringVar(&f.mode, "mode", "slo", "slo: the SLO-driven capacity profile (the only mode)")
	fs.IntVar(&f.batch, "batch", 64, "predictions per request")
	fs.IntVar(&f.step.Senders, "senders", 32, "concurrent sender goroutines")
	fs.Int64Var(&f.seed, "seed", 1, "feature-generation seed")

	fs.BoolVar(&f.inprocess, "inprocess", false, "profile an in-process server (trained fast model + simulated fleet) instead of -addr — what CI runs")
	fs.StringVar(&f.endpoints, "endpoints", "stable,ingest,hotspots,place", "comma-separated serving endpoints to profile: stable|session|ingest|freshness|hotspots|place")
	fs.Float64Var(&f.step.SLO.Quantile, "slo-quantile", 0.99, "tail-latency quantile the SLO constrains")
	fs.DurationVar(&f.step.SLO.Limit, "slo-limit", 0, "tail-latency limit (0 = per-endpoint defaults: stable, session, hotspots and freshness 5ms, ingest 10ms, place 20ms)")
	fs.Float64Var(&f.step.StartRPS, "slo-start", 32, "first load step, requests/s")
	fs.Float64Var(&f.step.MaxRPS, "slo-max", 65536, "load-step ceiling, requests/s")
	fs.Float64Var(&f.step.Growth, "slo-growth", 2, "multiplicative step factor while the SLO holds")
	fs.IntVar(&f.step.Refine, "slo-refine", 3, "bisection steps tightening the knee bracket after the first violation")
	fs.DurationVar(&f.step.Warmup, "slo-warmup", 500*time.Millisecond, "per-step unmeasured warm-up")
	fs.DurationVar(&f.step.Measure, "slo-measure", 2*time.Second, "per-step measured window")
	fs.DurationVar(&f.step.Cooldown, "slo-cooldown", 250*time.Millisecond, "per-step cool-down (stragglers drain under load)")
	fs.StringVar(&f.batches, "slo-batches", "", "comma-separated request batch sizes to profile per endpoint (default: the -batch value)")
	fs.StringVar(&f.outJSON, "out", "", "write the machine-readable capacity report (capacity.json / BENCH_SLO.json) here")
	fs.StringVar(&f.outMD, "report", "", "write the human CAPACITY.md report here")
	fs.StringVar(&f.baseline, "slo-baseline", "", "committed capacity report to compare against; profiles >15% under their baseline entry print a REGRESSION line (exit stays 0: shared runners are noisy)")

	fs.IntVar(&f.fleet.Racks, "slo-racks", 4, "in-process fleet racks")
	fs.IntVar(&f.fleet.HostsPerRack, "slo-hosts", 16, "in-process fleet hosts per rack")
	fs.Float64Var(&f.fleet.Admission.HeadroomBudgetC, "admission-budget", 0, "in-process AdmissionPolicy.HeadroomBudgetC (0 = gate off)")
	fs.IntVar(&f.fleet.Admission.MaxPlacementsPerRound, "admission-cap", 0, "in-process AdmissionPolicy.MaxPlacementsPerRound (0 = unbounded)")
	fs.IntVar(&f.workers, "workers", 0, "in-process server batch worker pool (0 = GOMAXPROCS)")
	fs.IntVar(&f.fleet.PhysWorkers, "phys-workers", 0, "in-process fleet physics workers (0 = default)")
	fs.IntVar(&f.ingestHosts, "slo-ingest-hosts", 256, "distinct host ids the ingest profile cycles over when the fleet's own hosts are unknown (remote mode)")
	fs.BoolVar(&f.fleet.StreamingIngest, "streaming", false, "enable streaming ingest on the in-process stack (required for the freshness endpoint; control rounds keep ticking in the background during ingest/freshness profiles)")
	fs.StringVar(&f.step.Arrivals, "arrivals", "fixed", "dispatch schedule for every profiled step: fixed|poisson|uniform (poisson/uniform offer the same mean rate with realistic burstiness)")

	fs.StringVar(&f.scenario, "scenario", "", "thermal-emergency scenario (builtin name or JSON file) to play against the in-process fleet while profiling — serving capacity under emergency (requires -inprocess)")
	fs.StringVar(&f.scenarioOut, "scenario-out", "", "write the scenario's graded report JSON here (requires -scenario)")
	return f
}

// defaultSLOLimits are the per-endpoint tail-latency defaults: 5 ms for the
// prediction hot paths, 20 ms for batch placement (one ranking + shortlist +
// batched ψ_stable per request), 10 ms for ingest (bounded-buffer
// admission), 5 ms for the snapshot read.
var defaultSLOLimits = map[string]time.Duration{
	"stable":    5 * time.Millisecond,
	"session":   5 * time.Millisecond,
	"ingest":    10 * time.Millisecond,
	"hotspots":  5 * time.Millisecond,
	"place":     20 * time.Millisecond,
	"freshness": 5 * time.Millisecond,
}

// The in-process daemon: trained on as many experiments as fleetd's default,
// primed so /v1/fleet/hotspots serves a populated snapshot and sessions are
// calibrated, and — when rounds run beside a profile — one every 25 ms.
const (
	inprocessTrainCases  = 24
	inprocessPrimeRounds = 3
	inprocessRoundEvery  = 25 * time.Millisecond
)

// run profiles every requested endpoint × batch combination, narrating to
// out, and writes the capacity report(s).
func run(f *sloFlags, out io.Writer) error {
	if f.batch <= 0 || f.step.Senders <= 0 {
		return fmt.Errorf("batch and senders must be positive")
	}
	if f.mode != "slo" {
		return fmt.Errorf("unknown -mode %q: slo is the only mode (a fixed-rate run is -slo-start R -slo-max R -slo-measure D)", f.mode)
	}
	ctx := context.Background()
	var (
		client *predictclient.Client
		stack  *daemon.Runtime // the in-process daemon; nil against -addr
		host   string
		err    error
	)
	// rounds is how the in-process control plane moves: every round goes
	// through the daemons' one loop.
	rounds := daemon.Loop{StopOnError: true}
	if f.inprocess {
		fc := f.fleet
		fc.Seed = f.seed
		fmt.Fprintf(out, "building in-process stack: %d×%d hosts, admission budget %.1f°C cap %d...\n",
			fc.Racks, fc.HostsPerRack, fc.Admission.HeadroomBudgetC, fc.Admission.MaxPlacementsPerRound)
		stack, err = daemon.StartInProcess(ctx, fc, inprocessTrainCases, f.workers)
		if err != nil {
			return err
		}
		// No listener and no checkpoint: Shutdown has nothing that can fail.
		defer func() { _ = stack.Shutdown() }()
		stack.Ctl.PaceS = inprocessRoundEvery.Seconds()
		if err := stack.Loop(ctx, advance(rounds, inprocessPrimeRounds)); err != nil {
			return fmt.Errorf("priming: %w", err)
		}
		client, err = predictclient.NewLocal(stack.Handler())
		if err != nil {
			return err
		}
		host = fmt.Sprintf("in-process (%d racks × %d hosts)", fc.Racks, fc.HostsPerRack)
	} else {
		client, err = predictclient.New(f.addr,
			predictclient.WithHTTPClient(&http.Client{
				Timeout: 30 * time.Second,
				Transport: &http.Transport{
					MaxIdleConns:        f.step.Senders * 2,
					MaxIdleConnsPerHost: f.step.Senders * 2,
				},
			}))
		if err != nil {
			return err
		}
		if err := client.Healthy(ctx); err != nil {
			return fmt.Errorf("server not healthy: %w", err)
		}
		host = f.addr
	}

	var emergency *scenario.Runner
	if f.scenario != "" {
		if stack == nil {
			return fmt.Errorf("-scenario needs -inprocess: the emergency is injected into the simulated fleet")
		}
		spec, err := scenario.Load(f.scenario)
		if err != nil {
			return err
		}
		emergency, err = scenario.New(spec, stack.Ctl.Controller)
		if err != nil {
			return err
		}
		// Rounds go through the scenario runner while its timeline has rounds
		// left (so grading sees them), plain rounds after.
		rounds.Step = func() (fleet.RoundReport, error) {
			if emergency.Done() {
				return stack.Ctl.RunRound()
			}
			return emergency.Step()
		}
		fmt.Fprintf(out, "scenario %s: %d-round emergency timeline plays under load\n", spec.Name, spec.Rounds)
	} else if f.scenarioOut != "" {
		return fmt.Errorf("-scenario-out requires -scenario")
	}

	batches, err := parseBatches(f.batches, f.batch)
	if err != nil {
		return err
	}
	endpoints := strings.Split(f.endpoints, ",")
	report := sloharness.NewReport(host)

	for _, ep := range endpoints {
		ep = strings.TrimSpace(ep)
		if ep == "" {
			continue
		}
		limit, ok := defaultSLOLimits[ep]
		if !ok {
			return fmt.Errorf("unknown endpoint %q (want stable|session|ingest|freshness|hotspots|place)", ep)
		}
		cfg := f.step
		cfg.ArrivalSeed = f.seed
		if cfg.SLO.Limit <= 0 {
			cfg.SLO.Limit = limit
		}
		if ep == "freshness" && f.inprocess && !f.fleet.StreamingIngest {
			return fmt.Errorf("the freshness endpoint needs -streaming on the in-process stack")
		}
		epBatches := batches
		if ep == "hotspots" { // GET endpoint: no batch dimension
			epBatches = []int{1}
		}
		for _, b := range epBatches {
			target, err := buildTarget(ctx, client, stack, ep, b, f)
			if err != nil {
				return err
			}
			fmt.Fprintf(out, "profiling %s batch=%d under %s...\n", target.Name(), b, cfg.SLO.Label())
			// Streaming push profiles run with the control loop ticking in
			// the background — the production shape, where rounds keep
			// draining the bounded pipeline and reconciling the live
			// hotspot index underneath the event-driven path. Without the
			// drain the pipeline fills and back-pressure, not latency,
			// bounds the measurement. A scenario keeps the ticker on for
			// every profile: the emergency timeline must advance while the
			// measured load runs, or there is no "under load" in the grade.
			var stopDrain func() error
			if stack != nil && (emergency != nil || (f.fleet.StreamingIngest && (ep == "ingest" || ep == "freshness"))) {
				stopDrain = background(ctx, stack, rounds)
			}
			profile, err := sloharness.Run(ctx, cfg, target)
			if stopDrain != nil {
				if derr := stopDrain(); derr != nil && err == nil {
					err = derr
				}
			}
			switch t := target.(type) {
			case *sloharness.SessionTarget:
				t.Close(ctx)
			case *sloharness.PlaceTarget:
				// Rejections are served decisions, not errors: a small fleet
				// fills within the first steps, and the tally says how much
				// of the knee priced placements that landed.
				fmt.Fprintf(out, "  decisions: placed %d queued %d rejected %d\n",
					t.Placed.Load(), t.Queued.Load(), t.Rejected.Load())
			}
			if err != nil {
				return err
			}
			profile.Knobs = profileKnobs(f, ep, b)
			profile.ItemsPerRequest = b
			profile.MaxSustainableItemsPerSec = profile.MaxSustainableRPS * float64(b)
			report.Profiles = append(report.Profiles, profile)
			fmt.Fprintf(out, "  max sustainable: %.0f req/s (%.0f items/s) across %d steps\n",
				profile.MaxSustainableRPS, profile.MaxSustainableItemsPerSec, len(profile.Steps))
			if stack != nil {
				// Drain queued placements and refresh the snapshot between
				// profiles so one endpoint's leftovers don't skew the next.
				if err := stack.Loop(ctx, advance(rounds, 2)); err != nil {
					return err
				}
			}
		}
	}

	if emergency != nil {
		// Run out whatever the load phases didn't cover — a half-played
		// timeline would grade a half-run emergency.
		if left := emergency.Spec().Rounds - emergency.Status().Round; left > 0 {
			if err := stack.Loop(ctx, advance(rounds, left)); err != nil {
				return err
			}
		}
		grade := emergency.Report()
		fmt.Fprintf(out, "scenario %s under load: flagged r%d, crossed r%d (lead %d), contained %v in %d rounds, %d/%d migrations, fp rate %.2f\n",
			grade.Name, grade.FirstFlagRound, grade.MeasuredCrossRound, grade.PredictedLeadRounds,
			grade.Contained, grade.ContainmentRounds, grade.MigrationsApplied, grade.MigrationBudget,
			grade.FalsePositiveRate)
		if f.scenarioOut != "" {
			if err := os.WriteFile(f.scenarioOut, grade.JSON(), 0o644); err != nil {
				return err
			}
			fmt.Fprintf(out, "wrote %s\n", f.scenarioOut)
		}
		if !grade.Passed {
			return fmt.Errorf("scenario %s FAILED its grade under load: %v", grade.Name, grade.Failures)
		}
	}

	if f.baseline != "" {
		if err := compareBaseline(out, f.baseline, report); err != nil {
			return err
		}
	}
	if f.outJSON != "" {
		if err := writeReportFile(f.outJSON, report.WriteJSON); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %s\n", f.outJSON)
	}
	if f.outMD != "" {
		if err := writeReportFile(f.outMD, report.WriteMarkdown); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %s\n", f.outMD)
	}
	fmt.Fprintln(out)
	return report.WriteMarkdown(out)
}

// buildTarget assembles the harness target for one endpoint × batch cell.
func buildTarget(ctx context.Context, client *predictclient.Client, stack *daemon.Runtime, ep string, batch int, f *sloFlags) (sloharness.Target, error) {
	// ingestHosts are the ids the push profiles cycle over: the in-process
	// fleet's own, or -slo-ingest-hosts synthetic ones against a remote.
	ingestHosts := func() []string {
		if stack != nil {
			if hosts := stack.Ctl.Hosts(); len(hosts) > 0 {
				return hosts
			}
		}
		hosts := make([]string, f.ingestHosts)
		for i := range hosts {
			hosts[i] = fmt.Sprintf("slo-h-%04d", i)
		}
		return hosts
	}
	switch ep {
	case "stable":
		rows, err := syntheticRows(f.seed, batch)
		if err != nil {
			return nil, err
		}
		return &sloharness.StableTarget{Client: client, Rows: rows}, nil
	case "session":
		return sloharness.OpenSessions(ctx, client, batch)
	case "ingest":
		return &sloharness.IngestTarget{Client: client, Hosts: ingestHosts(), Batch: batch}, nil
	case "freshness":
		return &sloharness.FreshnessTarget{Client: client, Hosts: ingestHosts(), Batch: batch}, nil
	case "hotspots":
		return &sloharness.HotspotsTarget{Client: client}, nil
	case "place":
		// Salt the VM ids per run so back-to-back profiles against one fleet
		// don't collide as duplicate-id.
		return &sloharness.PlaceTarget{
			Client: client, Batch: batch,
			Prefix: fmt.Sprintf("slo-%x", time.Now().UnixNano()&0xffffff),
		}, nil
	default:
		return nil, fmt.Errorf("unknown endpoint %q", ep)
	}
}

// profileKnobs records the configuration dimension of one profile — the
// key the regression gate matches baseline entries on.
func profileKnobs(f *sloFlags, ep string, batch int) map[string]string {
	knobs := map[string]string{"batch": strconv.Itoa(batch)}
	if !f.inprocess {
		return knobs
	}
	knobs["racks"] = strconv.Itoa(f.fleet.Racks)
	knobs["hosts"] = strconv.Itoa(f.fleet.HostsPerRack)
	if ep == "place" {
		knobs["admission_budget_c"] = strconv.FormatFloat(f.fleet.Admission.HeadroomBudgetC, 'g', -1, 64)
		knobs["admission_round_cap"] = strconv.Itoa(f.fleet.Admission.MaxPlacementsPerRound)
	}
	if f.workers > 0 {
		knobs["workers"] = strconv.Itoa(f.workers)
	}
	if f.fleet.PhysWorkers > 0 {
		knobs["phys_workers"] = strconv.Itoa(f.fleet.PhysWorkers)
	}
	if f.fleet.StreamingIngest {
		knobs["streaming"] = "1"
	}
	if f.step.Arrivals != "" && f.step.Arrivals != sloharness.ArrivalsFixed {
		knobs["arrivals"] = f.step.Arrivals
	}
	if f.scenario != "" {
		// A distinct baseline key: capacity measured while an emergency
		// plays is not comparable to clean-fleet capacity.
		knobs["scenario"] = f.scenario
	}
	return knobs
}

// advance is l bounded to n rounds, back to back.
func advance(l daemon.Loop, n int) daemon.Loop {
	l.Rounds = n
	return l
}

// background runs l's rounds at the in-process pace on a goroutine of its
// own until the returned stop function is called; stop waits for the loop
// and reports the round error that ended it early, if one did.
func background(ctx context.Context, stack *daemon.Runtime, l daemon.Loop) (stop func() error) {
	ctx, cancel := context.WithCancel(ctx)
	l.Pace = true
	done := make(chan error, 1)
	go func() { done <- stack.Loop(ctx, l) }()
	return func() error {
		cancel()
		return <-done
	}
}

func parseBatches(spec string, fallback int) ([]int, error) {
	if strings.TrimSpace(spec) == "" {
		return []int{fallback}, nil
	}
	var out []int
	for _, part := range strings.Split(spec, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad -slo-batches entry %q", part)
		}
		out = append(out, n)
	}
	return out, nil
}

// regressionTolerance is how far below its baseline entry a measured
// capacity may fall before the run prints a REGRESSION line. One refine-2
// bisection step resolves ~25% of the knee, so 15% flags anything beyond
// plain step-granularity noise.
const regressionTolerance = 0.15

// compareBaseline matches each fresh profile against the committed report
// by (endpoint, knobs) and prints REGRESSION lines for capacity drops
// beyond the tolerance. CI greps the output; the run itself stays
// successful because shared runners are too noisy for a hard gate.
func compareBaseline(out io.Writer, path string, fresh *sloharness.Report) error {
	file, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("baseline: %w", err)
	}
	base, err := sloharness.ParseReport(file)
	file.Close()
	if err != nil {
		return err
	}
	for _, p := range fresh.Profiles {
		bp := base.Capacity(p.Endpoint, p.Knobs)
		switch {
		case bp == nil:
			fmt.Fprintf(out, "baseline %s has no entry for %s %v — skipping comparison\n", path, p.Endpoint, p.Knobs)
		case bp.MaxSustainableRPS <= 0:
			// A zero baseline means the endpoint never sustained any load
			// when the baseline was committed; nothing to regress from.
		case p.MaxSustainableRPS < (1-regressionTolerance)*bp.MaxSustainableRPS:
			fmt.Fprintf(out, "REGRESSION %s: measured %.0f req/s vs baseline %.0f req/s (-%.0f%%)\n",
				p.Endpoint, p.MaxSustainableRPS, bp.MaxSustainableRPS,
				100*(1-p.MaxSustainableRPS/bp.MaxSustainableRPS))
		default:
			fmt.Fprintf(out, "capacity ok %s: measured %.0f req/s vs baseline %.0f req/s\n",
				p.Endpoint, p.MaxSustainableRPS, bp.MaxSustainableRPS)
		}
	}
	return nil
}

func writeReportFile(path string, write func(io.Writer) error) error {
	file, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(file); err != nil {
		file.Close()
		return err
	}
	return file.Close()
}
