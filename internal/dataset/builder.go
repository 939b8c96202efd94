package dataset

import (
	"cmp"
	"context"
	"fmt"
	"runtime"

	"vmtherm/internal/shard"
	"vmtherm/internal/substrate"
	"vmtherm/internal/thermal"
	"vmtherm/internal/workload"
)

// ExpS is the experiment length t_exp: the paper runs each case 1800 s.
const ExpS = 1800.0

// labelTBreakS is Eq. (1)'s break-in time: a record's ψ_stable label
// averages the trace after it. It is apart from core.DefaultTBreakS, the
// shape of Eq. (3)'s curve, so fitting the curve moves no label.
const labelTBreakS = 600.0

// BuildOptions configures dataset generation from simulated experiments,
// each ExpS long.
type BuildOptions struct {
	// Sensor overrides the sensor error model. Zero value selects defaults.
	Sensor thermal.SensorParams
	// Seed drives every case's sensor noise, with the case's name.
	Seed int64
	// Workers bounds parallel case execution; 0 selects GOMAXPROCS.
	Workers int
}

// DefaultBuildOptions mirrors the paper's experiment protocol.
func DefaultBuildOptions(seed int64) BuildOptions {
	return BuildOptions{Seed: seed}
}

// Validate checks the options.
func (o BuildOptions) Validate() error {
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

	records := make([]Record, len(cases))
	errs := make([]error, len(cases))
	workers := cmp.Or(opts.Workers, runtime.GOMAXPROCS(0))
	if err := shard.Each(ctx, len(cases), workers, func(i int) {
		records[i], errs[i] = buildOne(cases[i], opts)
	}); err != nil {
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
	tr, err := substrate.RunCase(c, cfg, ExpS)
	if err != nil {
		return Record{}, err
	}
	stable, err := tr.StableTemp(labelTBreakS)
	if err != nil {
		return Record{}, err
	}
	features, err := Encode(c, ExpS)
	if err != nil {
		return Record{}, err
	}
	return Record{CaseName: c.Name, Features: features, StableTemp: stable}, nil
}
