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

	"vmtherm/internal/fleet"
	"vmtherm/internal/predictclient"
	"vmtherm/internal/predictserver"
	"vmtherm/internal/scenario"
	"vmtherm/internal/sloharness"
)

// sloFlags is the `-mode slo` flag group: the SLO-driven capacity profiler
// that steps load up per endpoint until the declared tail-latency SLO
// breaks, and reports the max sustainable RPS (vHive-style
// warm-up/measure/cool-down steps + bisection refinement).
type sloFlags struct {
	inprocess *bool
	endpoints *string
	quantile  *float64
	limit     *time.Duration
	startRPS  *float64
	maxRPS    *float64
	growth    *float64
	refine    *int
	warmup    *time.Duration
	measure   *time.Duration
	cooldown  *time.Duration
	batches   *string
	outJSON   *string
	outMD     *string
	baseline  *string

	// In-process stack knobs (the capacity matrix dimensions).
	racks       *int
	hosts       *int
	budget      *float64
	roundCap    *int
	workers     *int
	physWorkers *int
	ingestHosts *int
	streaming   *bool
	arrivals    *string

	// Scenario-under-load: a scripted thermal emergency plays against the
	// in-process fleet while the profiler drives serving load.
	scenario    *string
	scenarioOut *string
}

func registerSLOFlags() *sloFlags {
	return &sloFlags{
		inprocess: flag.Bool("inprocess", false, "profile an in-process server (trained fast model + simulated fleet) instead of -addr — what CI runs"),
		endpoints: flag.String("endpoints", "stable,ingest,hotspots,place", "comma-separated serving endpoints to profile"),
		quantile:  flag.Float64("slo-quantile", 0.99, "tail-latency quantile the SLO constrains"),
		limit:     flag.Duration("slo-limit", 0, "tail-latency limit (0 = per-endpoint defaults: stable 5ms, ingest 10ms, hotspots 5ms, place 20ms)"),
		startRPS:  flag.Float64("slo-start", 32, "first load step, requests/s"),
		maxRPS:    flag.Float64("slo-max", 65536, "load-step ceiling, requests/s"),
		growth:    flag.Float64("slo-growth", 2, "multiplicative step factor while the SLO holds"),
		refine:    flag.Int("slo-refine", 3, "bisection steps tightening the knee bracket after the first violation"),
		warmup:    flag.Duration("slo-warmup", 500*time.Millisecond, "per-step unmeasured warm-up"),
		measure:   flag.Duration("slo-measure", 2*time.Second, "per-step measured window"),
		cooldown:  flag.Duration("slo-cooldown", 250*time.Millisecond, "per-step cool-down (stragglers drain under load)"),
		batches:   flag.String("slo-batches", "", "comma-separated request batch sizes to profile per endpoint (default: the -batch value)"),
		outJSON:   flag.String("out", "", "write the machine-readable capacity report (capacity.json / BENCH_SLO.json) here"),
		outMD:     flag.String("report", "", "write the human CAPACITY.md report here"),
		baseline:  flag.String("slo-baseline", "", "committed capacity report to compare against; profiles >15% under their baseline entry print a REGRESSION line (exit stays 0: shared runners are noisy)"),

		racks:       flag.Int("slo-racks", 4, "in-process fleet racks"),
		hosts:       flag.Int("slo-hosts", 16, "in-process fleet hosts per rack"),
		budget:      flag.Float64("admission-budget", 0, "in-process AdmissionPolicy.HeadroomBudgetC (0 = gate off)"),
		roundCap:    flag.Int("admission-cap", 0, "in-process AdmissionPolicy.MaxPlacementsPerRound (0 = unbounded)"),
		workers:     flag.Int("workers", 0, "in-process server batch worker pool (0 = GOMAXPROCS)"),
		physWorkers: flag.Int("phys-workers", 0, "in-process fleet physics workers (0 = default)"),
		ingestHosts: flag.Int("slo-ingest-hosts", 256, "distinct host ids the ingest profile cycles over when the fleet's own hosts are unknown (remote mode)"),
		streaming:   flag.Bool("streaming", false, "enable streaming ingest on the in-process stack (required for the freshness endpoint; control rounds keep ticking in the background during ingest/freshness profiles)"),
		arrivals:    flag.String("arrivals", "fixed", "dispatch schedule for every profiled step: fixed|poisson|uniform (poisson/uniform offer the same mean rate with realistic burstiness)"),

		scenario:    flag.String("scenario", "", "thermal-emergency scenario (builtin name or JSON file) to play against the in-process fleet while profiling — serving capacity under emergency (requires -inprocess)"),
		scenarioOut: flag.String("scenario-out", "", "write the scenario's graded report JSON here (requires -scenario)"),
	}
}

// defaultSLOLimits are the per-endpoint tail-latency defaults the ISSUE
// declares: 5 ms for the prediction hot path, 20 ms for batch placement
// (one ranking + shortlist + batched ψ_stable per request), 10 ms for
// ingest (bounded-buffer admission), 5 ms for the snapshot read.
var defaultSLOLimits = map[string]time.Duration{
	"stable":    5 * time.Millisecond,
	"ingest":    10 * time.Millisecond,
	"hotspots":  5 * time.Millisecond,
	"place":     20 * time.Millisecond,
	"freshness": 5 * time.Millisecond,
}

// runSLO profiles every requested endpoint × batch combination and writes
// the capacity report(s).
func runSLO(f *sloFlags, addr string, batch int, senders int, seed int64) error {
	ctx := context.Background()

	var (
		client *predictclient.Client
		stack  *predictserver.LocalStack
		host   string
		err    error
	)
	if *f.inprocess {
		fc := fleet.DefaultConfig()
		fc.Racks, fc.HostsPerRack = *f.racks, *f.hosts
		fc.Admission = fleet.AdmissionPolicy{
			HeadroomBudgetC:       *f.budget,
			MaxPlacementsPerRound: *f.roundCap,
		}
		fc.PhysWorkers = *f.physWorkers
		fc.StreamingIngest = *f.streaming
		fc.Seed = seed
		fmt.Printf("building in-process stack: %d×%d hosts, admission budget %.1f°C cap %d...\n",
			fc.Racks, fc.HostsPerRack, fc.Admission.HeadroomBudgetC, fc.Admission.MaxPlacementsPerRound)
		stack, err = predictserver.NewLocalStack(ctx, predictserver.LocalStackConfig{Fleet: fc, Workers: *f.workers})
		if err != nil {
			return err
		}
		defer stack.Close()
		client, err = predictclient.NewLocal(stack.Server.Handler())
		if err != nil {
			return err
		}
		host = fmt.Sprintf("in-process (%d racks × %d hosts)", *f.racks, *f.hosts)
	} else {
		client, err = predictclient.New(addr,
			predictclient.WithHTTPClient(&http.Client{
				Timeout: 30 * time.Second,
				Transport: &http.Transport{
					MaxIdleConns:        senders * 2,
					MaxIdleConnsPerHost: senders * 2,
				},
			}))
		if err != nil {
			return err
		}
		if err := client.Healthy(ctx); err != nil {
			return fmt.Errorf("server not healthy: %w", err)
		}
		host = addr
	}

	var emergency *scenario.Runner
	if *f.scenario != "" {
		if stack == nil {
			return fmt.Errorf("-scenario needs -inprocess: the emergency is injected into the simulated fleet")
		}
		spec, err := scenario.Load(*f.scenario)
		if err != nil {
			return err
		}
		emergency, err = scenario.New(spec, stack.Fleet)
		if err != nil {
			return err
		}
		fmt.Printf("scenario %s: %d-round emergency timeline plays under load\n", spec.Name, spec.Rounds)
	} else if *f.scenarioOut != "" {
		return fmt.Errorf("-scenario-out requires -scenario")
	}

	batches, err := parseBatches(*f.batches, batch)
	if err != nil {
		return err
	}
	endpoints := strings.Split(*f.endpoints, ",")
	report := sloharness.NewReport(host)

	for _, ep := range endpoints {
		ep = strings.TrimSpace(ep)
		if ep == "" {
			continue
		}
		limit, ok := defaultSLOLimits[ep]
		if !ok {
			return fmt.Errorf("unknown endpoint %q (want stable|ingest|hotspots|place|freshness)", ep)
		}
		if ep == "freshness" && *f.inprocess && !*f.streaming {
			return fmt.Errorf("the freshness endpoint needs -streaming on the in-process stack")
		}
		if *f.limit > 0 {
			limit = *f.limit
		}
		epBatches := batches
		if ep == "hotspots" { // GET endpoint: no batch dimension
			epBatches = []int{1}
		}
		for _, b := range epBatches {
			target, items, err := buildTarget(client, stack, ep, b, seed, f)
			if err != nil {
				return err
			}
			cfg := sloharness.Config{
				SLO:      sloharness.SLO{Quantile: *f.quantile, Limit: limit},
				StartRPS: *f.startRPS, MaxRPS: *f.maxRPS, Growth: *f.growth, Refine: *f.refine,
				Warmup: *f.warmup, Measure: *f.measure, Cooldown: *f.cooldown,
				Senders:  senders,
				Arrivals: *f.arrivals, ArrivalSeed: seed,
			}
			fmt.Printf("profiling %s batch=%d under %s...\n", target.Name(), b, cfg.SLO.Label())
			// Streaming push profiles run with the control loop ticking in
			// the background — the production shape, where rounds keep
			// draining the bounded pipeline and reconciling the live
			// hotspot index underneath the event-driven path. Without the
			// drain the pipeline fills and back-pressure, not latency,
			// bounds the measurement. A scenario keeps the ticker on for
			// every profile: the emergency timeline must advance while the
			// measured load runs, or there is no "under load" in the grade.
			var stopDrain func() error
			if stack != nil && (emergency != nil || (*f.streaming && (ep == "ingest" || ep == "freshness"))) {
				stopDrain = drainRounds(stack, emergency, 25*time.Millisecond)
			}
			profile, err := sloharness.Run(ctx, cfg, target)
			if stopDrain != nil {
				if derr := stopDrain(); derr != nil && err == nil {
					err = derr
				}
			}
			if err != nil {
				return err
			}
			profile.Knobs = profileKnobs(f, ep, b)
			profile.ItemsPerRequest = items
			profile.MaxSustainableItemsPerSec = profile.MaxSustainableRPS * float64(items)
			report.Profiles = append(report.Profiles, profile)
			fmt.Printf("  max sustainable: %.0f req/s (%.0f items/s) across %d steps\n",
				profile.MaxSustainableRPS, profile.MaxSustainableItemsPerSec, len(profile.Steps))
			if stack != nil {
				// Drain queued placements and refresh the snapshot between
				// profiles so one endpoint's leftovers don't skew the next.
				if err := advanceRounds(stack, emergency, 2); err != nil {
					return err
				}
			}
		}
	}

	if emergency != nil {
		// Run out whatever the load phases didn't cover — a half-played
		// timeline would grade a half-run emergency.
		for !emergency.Done() {
			if _, err := emergency.Step(); err != nil {
				return err
			}
		}
		grade := emergency.Report()
		fmt.Printf("scenario %s under load: flagged r%d, crossed r%d (lead %d), contained %v in %d rounds, %d/%d migrations, fp rate %.2f\n",
			grade.Name, grade.FirstFlagRound, grade.MeasuredCrossRound, grade.PredictedLeadRounds,
			grade.Contained, grade.ContainmentRounds, grade.MigrationsApplied, grade.MigrationBudget,
			grade.FalsePositiveRate)
		if *f.scenarioOut != "" {
			if err := os.WriteFile(*f.scenarioOut, grade.JSON(), 0o644); err != nil {
				return err
			}
			fmt.Printf("wrote %s\n", *f.scenarioOut)
		}
		if !grade.Passed {
			return fmt.Errorf("scenario %s FAILED its grade under load: %v", grade.Name, grade.Failures)
		}
	}

	if *f.baseline != "" {
		if err := compareBaseline(*f.baseline, report); err != nil {
			return err
		}
	}
	if *f.outJSON != "" {
		if err := writeReportFile(*f.outJSON, report.WriteJSON); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *f.outJSON)
	}
	if *f.outMD != "" {
		if err := writeReportFile(*f.outMD, report.WriteMarkdown); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *f.outMD)
	}
	fmt.Println()
	return report.WriteMarkdown(os.Stdout)
}

// buildTarget assembles the harness target for one endpoint × batch cell.
func buildTarget(client *predictclient.Client, stack *predictserver.LocalStack, ep string, batch int, seed int64, f *sloFlags) (sloharness.Target, int, error) {
	switch ep {
	case "stable":
		rows, err := syntheticRows(seed, batch)
		if err != nil {
			return nil, 0, err
		}
		return &sloharness.StableTarget{Client: client, Rows: rows}, batch, nil
	case "ingest":
		var hosts []string
		if stack != nil {
			hosts = stack.Fleet.Hosts()
		}
		if len(hosts) == 0 {
			hosts = make([]string, *f.ingestHosts)
			for i := range hosts {
				hosts[i] = fmt.Sprintf("slo-h-%04d", i)
			}
		}
		return &sloharness.IngestTarget{Client: client, Hosts: hosts, Batch: batch}, batch, nil
	case "freshness":
		var hosts []string
		if stack != nil {
			hosts = stack.Fleet.Hosts()
		}
		if len(hosts) == 0 {
			hosts = make([]string, *f.ingestHosts)
			for i := range hosts {
				hosts[i] = fmt.Sprintf("slo-h-%04d", i)
			}
		}
		return &sloharness.FreshnessTarget{Client: client, Hosts: hosts, Batch: batch}, batch, nil
	case "hotspots":
		return &sloharness.HotspotsTarget{Client: client}, 1, nil
	case "place":
		return &sloharness.PlaceTarget{
			Client: client, Batch: batch,
			Prefix: fmt.Sprintf("slo-%x", time.Now().UnixNano()&0xffffff),
		}, batch, nil
	default:
		return nil, 0, fmt.Errorf("unknown endpoint %q", ep)
	}
}

// profileKnobs records the configuration dimension of one profile — the
// key the regression gate matches baseline entries on.
func profileKnobs(f *sloFlags, ep string, batch int) map[string]string {
	knobs := map[string]string{"batch": strconv.Itoa(batch)}
	if !*f.inprocess {
		return knobs
	}
	knobs["racks"] = strconv.Itoa(*f.racks)
	knobs["hosts"] = strconv.Itoa(*f.hosts)
	if ep == "place" {
		knobs["admission_budget_c"] = strconv.FormatFloat(*f.budget, 'g', -1, 64)
		knobs["admission_round_cap"] = strconv.Itoa(*f.roundCap)
	}
	if *f.workers > 0 {
		knobs["workers"] = strconv.Itoa(*f.workers)
	}
	if *f.physWorkers > 0 {
		knobs["phys_workers"] = strconv.Itoa(*f.physWorkers)
	}
	if *f.streaming {
		knobs["streaming"] = "1"
	}
	if *f.arrivals != "" && *f.arrivals != sloharness.ArrivalsFixed {
		knobs["arrivals"] = *f.arrivals
	}
	if *f.scenario != "" {
		// A distinct baseline key: capacity measured while an emergency
		// plays is not comparable to clean-fleet capacity.
		knobs["scenario"] = *f.scenario
	}
	return knobs
}

// advanceRounds moves the control plane n rounds forward — through the
// scenario runner while its timeline has rounds left (so grading sees
// them), plain rounds after.
func advanceRounds(stack *predictserver.LocalStack, emergency *scenario.Runner, n int) error {
	for i := 0; i < n; i++ {
		if emergency != nil && !emergency.Done() {
			if _, err := emergency.Step(); err != nil {
				return err
			}
			continue
		}
		if err := stack.RunRounds(1); err != nil {
			return err
		}
	}
	return nil
}

// drainRounds runs control rounds on a background ticker until the
// returned stop function is called; stop reports the first round error.
func drainRounds(stack *predictserver.LocalStack, emergency *scenario.Runner, every time.Duration) (stop func() error) {
	done := make(chan struct{})
	errCh := make(chan error, 1)
	go func() {
		defer close(errCh)
		ticker := time.NewTicker(every)
		defer ticker.Stop()
		for {
			select {
			case <-done:
				return
			case <-ticker.C:
				if err := advanceRounds(stack, emergency, 1); err != nil {
					errCh <- err
					return
				}
			}
		}
	}()
	return func() error {
		close(done)
		return <-errCh
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
func compareBaseline(path string, fresh *sloharness.Report) error {
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
			fmt.Printf("baseline %s has no entry for %s %v — skipping comparison\n", path, p.Endpoint, p.Knobs)
		case bp.MaxSustainableRPS <= 0:
			// A zero baseline means the endpoint never sustained any load
			// when the baseline was committed; nothing to regress from.
		case p.MaxSustainableRPS < (1-regressionTolerance)*bp.MaxSustainableRPS:
			fmt.Printf("REGRESSION %s: measured %.0f req/s vs baseline %.0f req/s (-%.0f%%)\n",
				p.Endpoint, p.MaxSustainableRPS, bp.MaxSustainableRPS,
				100*(1-p.MaxSustainableRPS/bp.MaxSustainableRPS))
		default:
			fmt.Printf("capacity ok %s: measured %.0f req/s vs baseline %.0f req/s\n",
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
