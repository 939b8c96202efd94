package main

import (
	"context"
	"flag"
	"io"
	"net"
	"strings"
	"testing"

	"vmtherm"
	"vmtherm/internal/fleet"
)

// TestOccupiedAddrFailsBeforeFirstRound: `-addr` on a port something else
// holds must fail the run before round 1. fleetd used to start
// ListenAndServe in a goroutine and only log its error: it announced
// "serving fleet API", ran every round unserved and exited 0 — or, with
// -rounds 0, ran forever.
func TestOccupiedAddrFailsBeforeFirstRound(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	ctx := context.Background()
	cases, err := vmtherm.GenerateCases(vmtherm.DefaultGenOptions(), 5, "fleetd-test", 12)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := vmtherm.BuildDataset(ctx, cases, vmtherm.DefaultBuildOptions(5))
	if err != nil {
		t.Fatal(err)
	}
	model, err := vmtherm.TrainStable(ctx, recs, vmtherm.FastStableConfig())
	if err != nil {
		t.Fatal(err)
	}
	occupied, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer occupied.Close()

	fs := flag.NewFlagSet("vmtherm-fleetd", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	shared, own := bindFlags(fs)
	if err := fs.Parse([]string{"-racks", "1", "-hosts", "4", "-rounds", "2", "-addr", occupied.Addr().String()}); err != nil {
		t.Fatal(err)
	}
	ctl, err := shared.NewController(shared.Config(), vmtherm.FleetStablePredictor(model, 1800))
	if err != nil {
		t.Fatal(err)
	}
	err = runLoop(ctx, ctl, loopOptions{rounds: own.rounds, addr: shared.Addr, model: model})
	if err == nil || !strings.Contains(err.Error(), "address already in use") {
		t.Fatalf("runLoop on an occupied port: %v, want a bind error", err)
	}
	ctl.ViewSnapshot(func(s *fleet.Snapshot) {
		if s.Round != 0 {
			t.Errorf("the loop ran %d rounds on a port it could not bind", s.Round)
		}
	})
}
