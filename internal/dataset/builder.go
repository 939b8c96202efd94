package dataset

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"vmtherm/internal/testbed"
	"vmtherm/internal/workload"
)

// BuildOptions configures dataset generation from simulated experiments.
type BuildOptions struct {
	// Run configures each experiment execution (defaults to the paper's
	// 1800 s at 1 s ticks).
	Run testbed.RunConfig
	// TBreakS is the Eq. (1) break-in time; ψ_stable averages after it.
	TBreakS float64
	// Rig passes through sensor/thermal overrides and seeding.
	Rig testbed.Options
	// Workers bounds parallel case execution; 0 selects GOMAXPROCS.
	Workers int
}

// DefaultBuildOptions mirrors the paper's experiment protocol.
func DefaultBuildOptions(seed int64) BuildOptions {
	return BuildOptions{
		Run:     testbed.DefaultRunConfig(),
		TBreakS: 600,
		Rig:     testbed.Options{Seed: seed},
	}
}

// Validate checks the options.
func (o BuildOptions) Validate() error {
	if err := o.Run.Validate(); err != nil {
		return err
	}
	if !(o.TBreakS > 0 && o.TBreakS < o.Run.DurationS) {
		return fmt.Errorf("dataset: t_break %v must fall inside the run duration %v",
			o.TBreakS, o.Run.DurationS)
	}
	if o.Workers < 0 {
		return fmt.Errorf("dataset: negative workers %d", o.Workers)
	}
	return nil
}

// Build runs every case on its own simulated rig and emits one Eq. (2)
// record per case, in case order. Execution is parallel across cases but
// bit-for-bit deterministic: each case's rig derives its randomness from
// (opts.Rig.Seed, case name), not from scheduling.
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
	rig, err := testbed.New(c, opts.Rig)
	if err != nil {
		return Record{}, err
	}
	res, err := rig.Run(opts.Run)
	if err != nil {
		return Record{}, err
	}
	stable, err := res.StableTemp(opts.TBreakS)
	if err != nil {
		return Record{}, err
	}
	features, err := Encode(c, opts.Run.DurationS)
	if err != nil {
		return Record{}, err
	}
	return Record{CaseName: c.Name, Features: features, StableTemp: stable}, nil
}
