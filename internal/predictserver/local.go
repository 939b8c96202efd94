package predictserver

import (
	"context"
	"fmt"

	"vmtherm/internal/core"
	"vmtherm/internal/dataset"
	"vmtherm/internal/fleet"
	"vmtherm/internal/workload"
)

// LocalStackConfig shapes a self-contained in-process service: a fast
// stable model trained on simulated experiments, a simulated fleet control
// plane, and a Server wired to both. It exists for the SLO capacity
// harness (`vmtherm-loadgen -mode slo`) and CI, where profiling must
// exercise the real serving path without a separately launched daemon or
// network flake. Zero values take the documented defaults.
type LocalStackConfig struct {
	// Fleet configures the simulated control plane — shape, admission
	// policy, workers, streaming ingest — exactly as fleet.New takes it; its
	// Seed also drives training-case generation. The zero value is
	// fleet.DefaultConfig() (4 × 16 hosts, seed 1).
	Fleet fleet.Config
	// TrainCases is how many simulated experiments train the fast stable
	// model (default 24, the vmtherm-fleetd default).
	TrainCases int
	// Workers sizes the server's batch worker pool (0 = default).
	Workers int
	// PrimeRounds runs this many control rounds before the stack is
	// handed out (default 3) so /v1/fleet/hotspots serves a populated
	// snapshot and sessions are calibrated.
	PrimeRounds int
}

func (c LocalStackConfig) withDefaults() LocalStackConfig {
	if c.Fleet == (fleet.Config{}) {
		c.Fleet = fleet.DefaultConfig()
	}
	if c.Fleet.HorizonS == 0 {
		// The anchor predictor is built before fleet.New resolves defaults.
		c.Fleet.HorizonS = fleet.DefaultConfig().HorizonS
	}
	if c.TrainCases == 0 {
		c.TrainCases = 24
	}
	if c.PrimeRounds == 0 {
		c.PrimeRounds = 3
	}
	return c
}

// LocalStack is the assembled in-process service.
type LocalStack struct {
	Server *Server
	Fleet  *fleet.Controller
	Model  *core.StablePredictor
}

// NewLocalStack trains the model, builds the fleet and assembles the
// server. The fleet's anchor path runs the same trained model through
// fleet.StableBatchPredictor — the production wiring, not a synthetic
// stand-in — so capacity numbers cover real prediction cost.
func NewLocalStack(ctx context.Context, cfg LocalStackConfig) (*LocalStack, error) {
	cfg = cfg.withDefaults()

	seed := cfg.Fleet.Seed
	cases, err := workload.GenerateCases(workload.DefaultGenOptions(), seed, "slo-train", cfg.TrainCases)
	if err != nil {
		return nil, fmt.Errorf("predictserver: generating training cases: %w", err)
	}
	recs, err := dataset.Build(ctx, cases, dataset.DefaultBuildOptions(seed))
	if err != nil {
		return nil, fmt.Errorf("predictserver: building training dataset: %w", err)
	}
	model, err := core.TrainStable(ctx, recs, core.FastStableConfig())
	if err != nil {
		return nil, fmt.Errorf("predictserver: training stable model: %w", err)
	}

	ctl, err := fleet.New(cfg.Fleet, fleet.StableBatchPredictor(model, cfg.Fleet.HorizonS))
	if err != nil {
		return nil, fmt.Errorf("predictserver: building fleet: %w", err)
	}
	for i := 0; i < cfg.PrimeRounds; i++ {
		if _, err := ctl.RunRound(); err != nil {
			return nil, fmt.Errorf("predictserver: priming round %d: %w", i, err)
		}
	}

	opts := []Option{WithFleet(ctl)}
	if cfg.Workers > 0 {
		opts = append(opts, WithWorkers(cfg.Workers))
	}
	srv, err := New(model, opts...)
	if err != nil {
		return nil, err
	}
	return &LocalStack{Server: srv, Fleet: ctl, Model: model}, nil
}

// RunRounds advances the control plane n rounds — profiling scenarios that
// want the queue drained or the snapshot refreshed between steps call this
// explicitly, keeping round cost out of the measured window by default.
func (ls *LocalStack) RunRounds(n int) error {
	for i := 0; i < n; i++ {
		if _, err := ls.Fleet.RunRound(); err != nil {
			return err
		}
	}
	return nil
}

// Close releases the server's worker pool.
func (ls *LocalStack) Close() {
	ls.Server.Close()
}
