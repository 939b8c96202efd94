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
	"flag"
	"log"
	"os"
	"os/signal"
	"syscall"

	"vmtherm/internal/daemon"
	"vmtherm/internal/fleet"
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
	rt, err := daemon.Start(flags.Addr, model, ctl)
	if err != nil {
		return err
	}
	log.Printf("serving on %s", rt.Addr())
	if ctl != nil {
		// The background control loop: one round per pacing interval, round
		// errors logged (live sources degrade; they must not kill the API
		// server). Shutdown waits for it.
		go func() {
			_ = rt.Loop(ctx, daemon.Loop{Pace: true, After: func(rep fleet.RoundReport) {
				if rep.SourceError != "" {
					log.Printf("fleet round %d: source error: %s", rep.Round, rep.SourceError)
				}
			}})
		}()
	}
	select {
	case <-rt.Done():
	case <-ctx.Done():
		log.Print("shutting down")
	}
	return rt.Shutdown()
}
