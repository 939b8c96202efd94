package dataset

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"

	"vmtherm/internal/substrate"
	"vmtherm/internal/thermal"
	"vmtherm/internal/workload"
)

// BuildOptions configures dataset generation from simulated experiments.
type BuildOptions struct {
	// DurationS is the experiment length t_exp (the paper runs 1800 s).
	DurationS float64
	// TBreakS is the Eq. (1) break-in time; ψ_stable averages after it.
	TBreakS float64
	// Sensor overrides the sensor error model. Zero value selects defaults.
	Sensor thermal.SensorParams
	// Seed drives every case's sensor noise, with the case's name.
	Seed int64
	// Workers bounds parallel case execution; 0 selects GOMAXPROCS.
	Workers int
}

// DefaultBuildOptions mirrors the paper's experiment protocol.
func DefaultBuildOptions(seed int64) BuildOptions {
	return BuildOptions{DurationS: 1800, TBreakS: 600, Seed: seed}
}

// Validate checks the options: a finite duration and a t_break inside it —
// NaN and ±Inf fail every test.
func (o BuildOptions) Validate() error {
	if !(o.DurationS > 0) || math.IsInf(o.DurationS, 1) {
		return fmt.Errorf("dataset: duration must be finite and > 0, got %v", o.DurationS)
	}
	if !(o.TBreakS > 0 && o.TBreakS < o.DurationS) {
		return fmt.Errorf("dataset: t_break %v must fall inside the run duration %v",
			o.TBreakS, o.DurationS)
	}
	if o.Workers < 0 {
		return fmt.Errorf("dataset: negative workers %d", o.Workers)
	}
	return nil
}

// Build runs every case on its own one-host fleet (substrate.RunCase) and
// emits one Eq. (2) record per case, in case order. Execution is parallel
// across cases but bit-for-bit deterministic: each case derives its
// randomness from (opts.Seed, case name), not from scheduling.
func Build(ctx context.Context, cases []workload.Case, opts BuildOptions) ([]Record, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if len(cases) == 0 {
		return nil, fmt.Errorf("dataset: no cases")
	}

	workers := opts.Workers
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(cases) {
		workers = len(cases)
	}

	records := make([]Record, len(cases))
	errs := make([]error, len(cases))
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range jobs {
				records[idx], errs[idx] = buildOne(cases[idx], opts)
			}
		}()
	}
feed:
	for i := range cases {
		select {
		case <-ctx.Done():
			break feed
		case jobs <- i:
		}
	}
	close(jobs)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("dataset: build cancelled: %w", err)
	}
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("dataset: case %s: %w", cases[i].Name, err)
		}
	}
	return records, nil
}

func buildOne(c workload.Case, opts BuildOptions) (Record, error) {
	cfg := substrate.DefaultConfig()
	if opts.Sensor != (thermal.SensorParams{}) {
		cfg.Sensor = opts.Sensor
	}
	cfg.Seed = opts.Seed
	tr, err := substrate.RunCase(c, cfg, opts.DurationS)
	if err != nil {
		return Record{}, err
	}
	stable, err := tr.StableTemp(opts.TBreakS)
	if err != nil {
		return Record{}, err
	}
	features, err := Encode(c, opts.DurationS)
	if err != nil {
		return Record{}, err
	}
	return Record{CaseName: c.Name, Features: features, StableTemp: stable}, nil
}
