// vmtherm-predictd serves temperature predictions over HTTP, the deployment
// shape the paper describes: "the model received data collected online and
// output prediction values".
//
// Endpoints:
//
//	GET    /healthz                      liveness probe
//	GET    /readyz                       readiness: 503 until restored and the
//	                                     first round has run, and while draining
//	GET    /metrics                      Prometheus exposition (scrape-able)
//	POST   /v1/predict/stable            {"features": [16 floats]} → ψ_stable
//	POST   /v1/stable/batch              batch ψ_stable through the SVM kernel
//	POST   /v1/session                   create a dynamic-prediction session
//	POST   /v1/session/{id}/observe      feed φ(t); calibrates per Δ_update
//	GET    /v1/session/{id}/predict?t=   ψ(t + Δ_gap) with current γ
//	DELETE /v1/session/{id}              drop a session
//	POST   /v1/fleet/ingest              push telemetry (with -source)
//	GET    /v1/fleet/hotspots            Δ_gap-ahead hotspot map (with -source)
//	GET    /v1/fleet/checkpoint          checkpoint counters (with -checkpoint-file)
//
// With -source, the daemon additionally runs a fleet control loop in the
// background — simulated (sim), replaying a recorded trace (trace), or
// scraping a live Prometheus exporter such as Kepler (scrape) — and serves
// its hotspot map and per-host gauges from the same process.
//
// Usage:
//
//	vmtherm-train -fast -out model.svm
//	vmtherm-predictd -model model.svm -addr :8080
//	vmtherm-predictd -model model.svm -source scrape -scrape-url http://kepler:9102/metrics
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"

	"vmtherm/internal/core"
	"vmtherm/internal/daemon"
	"vmtherm/internal/fleet"
	"vmtherm/internal/predictserver"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("vmtherm-predictd: ")
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

// bindFlags declares predictd's whole flag surface on fs: the shared fleet
// flags and nothing of its own. predictd serves a model it is given, and
// runs a fleet loop only with -source, in real time — hence its defaults.
func bindFlags(fs *flag.FlagSet) *daemon.Flags {
	return daemon.Bind(fs, daemon.Defaults{
		Addr: ":8080", Model: "model.svm", Racks: 4, Hosts: 16, Speed: 1, Loop: true,
	})
}

func run() error {
	flags := bindFlags(flag.CommandLine)
	flag.Parse()
	model, err := daemon.LoadModel(flags.Model)
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var ctl *daemon.Controller
	if flags.Source != "" {
		cfg := flags.Config()
		ctl, err = flags.NewController(cfg, fleet.StableBatchPredictor(model, cfg.HorizonS))
		if err != nil {
			return err
		}
		log.Printf("fleet control loop attached, one round every %.3gs", ctl.PaceS)
	} else if flags.CheckpointFile != "" {
		return daemon.ErrCheckpointNeedsSource
	}
	return serve(ctx, flags.Addr, model, ctl)
}

// serve binds addr (failing before any round runs if it cannot), then runs
// the HTTP surface — and, with a fleet attached, its background control loop
// — until ctx is cancelled or the listener fails, then shuts down in
// contract order: /readyz flips to 503 so balancers stop routing, in-flight
// requests drain, the round loop finishes its in-flight round and exits, and
// only then is the final checkpoint cut (ctl.Close) — so it lands after the
// last ingest push and the last round that could still have mutated serving
// state.
func serve(ctx context.Context, addr string, model *core.StablePredictor, ctl *daemon.Controller) error {
	// ready feeds /readyz: with a fleet attached, false until the first round
	// completes (restore alone is not proof the loop is serving), and false
	// again during the shutdown drain. Without a fleet the model itself is
	// the serving state, ready as soon as the listener is up.
	var ready atomic.Bool
	ready.Store(ctl == nil)
	opts := []predictserver.Option{predictserver.WithReadiness(ready.Load)}
	if ctl != nil {
		opts = append(opts, predictserver.WithFleet(ctl.Controller))
		if ctl.Ckpt != nil {
			opts = append(opts, predictserver.WithCheckpoint(ctl.Ckpt.Status))
		}
	}
	srv, err := predictserver.New(model, opts...)
	if err != nil {
		return err
	}
	defer srv.Close()
	httpSrv, err := daemon.Listen(addr, srv.Handler())
	if err != nil {
		return err
	}
	log.Printf("serving on %s", httpSrv.Addr())

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	loopDone := make(chan struct{})
	go func() {
		defer close(loopDone)
		if ctl != nil {
			runRounds(ctx, ctl, &ready)
		}
	}()

	select {
	case <-httpSrv.Done():
	case <-ctx.Done():
		log.Print("shutting down")
	}
	ready.Store(false)
	err = httpSrv.Drain()
	cancel()
	<-loopDone
	if ctl != nil {
		err = errors.Join(err, ctl.Close())
	}
	return err
}

// runRounds is the background control loop: one round per pacing interval
// until ctx is cancelled, errors logged (live sources degrade; they must not
// kill the API server).
func runRounds(ctx context.Context, ctl *daemon.Controller, ready *atomic.Bool) {
	ticker := time.NewTicker(time.Duration(ctl.PaceS * float64(time.Second)))
	defer ticker.Stop()
	for {
		rep, err := ctl.RunRound()
		if err != nil {
			log.Printf("fleet round: %v", err)
		} else {
			ready.Store(ctx.Err() == nil) // a round finishing during the drain must not reopen /readyz
			if rep.SourceError != "" {
				log.Printf("fleet round %d: source error: %s", rep.Round, rep.SourceError)
			}
			if _, err := ctl.Ckpt.SaveIfDue(ctl.Checkpoint, false); err != nil {
				log.Printf("checkpoint: %v", err)
			}
		}
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
		}
	}
}
