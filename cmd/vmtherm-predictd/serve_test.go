package main

import (
	"context"
	"flag"
	"io"
	"path/filepath"
	"testing"
	"time"

	"vmtherm/internal/checkpoint"
	"vmtherm/internal/core"
	"vmtherm/internal/daemon"
	"vmtherm/internal/dataset"
	"vmtherm/internal/fleet"
	"vmtherm/internal/workload"
)

// TestFinalCheckpointFollowsLastRound pins the shutdown contract: serve cuts
// the final checkpoint only after the background round loop has exited, so
// the checkpointed round is the last round the controller ever ran. The loop
// used to be left running: with its ticker and ctx.Done both ready, select
// could start one more round after the checkpoint was written. A sub-ms
// pacing interval keeps the ticker permanently ready so every shutdown
// exercises that race.
func TestFinalCheckpointFollowsLastRound(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	cases, err := workload.GenerateCases(workload.DefaultGenOptions(), 5, "predictd-test", 12)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := dataset.Build(context.Background(), cases, dataset.DefaultBuildOptions(5))
	if err != nil {
		t.Fatal(err)
	}
	model, err := core.TrainStable(context.Background(), recs, core.FastStableConfig())
	if err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 10; i++ {
		base := filepath.Join(t.TempDir(), "ckpt")
		ctl := assemble(t, "-source", "trace", "-trace", "../../internal/fleet/testdata/trace_pr3.csv",
			"-speed", "100000", "-checkpoint-file", base, "-checkpoint-every", "0")
		round := func() (r int) {
			ctl.ViewSnapshot(func(s *fleet.Snapshot) { r = s.Round })
			return r
		}

		ctx, cancel := context.WithCancel(context.Background())
		served := make(chan error, 1)
		go func() { served <- serve(ctx, "127.0.0.1:0", model, ctl) }()
		for deadline := time.Now().Add(10 * time.Second); round() < 5; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatal("the round loop never reached round 5")
			}
		}
		cancel()
		if err := <-served; err != nil {
			t.Fatal(err)
		}
		st, _, err := checkpoint.NewStore(base).Load()
		if err != nil {
			t.Fatal(err)
		}
		if final := round(); st.Round != final {
			t.Fatalf("shutdown %d: final checkpoint cut at round %d, but the loop ran on to round %d", i, st.Round, final)
		}
	}
}

// assemble parses args over predictd's flag surface and builds the fleet.
func assemble(t *testing.T, args ...string) *daemon.Controller {
	t.Helper()
	fs := flag.NewFlagSet("vmtherm-predictd", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	flags := bindFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	ctl, err := flags.NewController(flags.Config(), fleet.SyntheticStablePredictor(75))
	if err != nil {
		t.Fatal(err)
	}
	return ctl
}
