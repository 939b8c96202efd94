// Agent: the full online deployment loop in one process — a monitoring
// agent samples a (simulated) server, streams measurements to the
// vmtherm prediction API through the typed client, reads Δ_gap-ahead
// predictions back, and watches residuals with a drift detector. Halfway
// through, two fans fail: the detector flags the regime change and the
// agent re-anchors its prediction session using the model's forecast for
// the degraded cooling configuration.
//
// Run with: go run ./examples/agent
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"net/http"
	"time"

	"vmtherm/internal/core"
	"vmtherm/internal/dataset"
	"vmtherm/internal/predictclient"
	"vmtherm/internal/predictserver"
	"vmtherm/internal/substrate"
	"vmtherm/internal/telemetry"
	"vmtherm/internal/workload"
)

func main() {
	log.SetFlags(0)
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	ctx := context.Background()
	const seed = 37

	// Train a model whose corpus covers both healthy and degraded cooling.
	gen := workload.DefaultGenOptions()
	gen.FanChoices = []int{1, 2, 4, 6}
	trainCases, err := workload.GenerateCases(gen, seed, "train", 80)
	if err != nil {
		return err
	}
	fmt.Println("training stable model on 80 simulated experiments...")
	records, err := dataset.Build(ctx, trainCases, dataset.DefaultBuildOptions(seed))
	if err != nil {
		return err
	}
	model, err := core.TrainStable(ctx, records, core.FastStableConfig())
	if err != nil {
		return err
	}

	// Serve it on an ephemeral port, as `vmtherm-fleetd -source none` would.
	srv, err := predictserver.New(model)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 5 * time.Second}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()
	defer func() {
		_ = httpSrv.Close()
		<-serveErr
	}()
	client, err := predictclient.New("http://" + ln.Addr().String())
	if err != nil {
		return err
	}
	if err := client.Healthy(ctx); err != nil {
		return err
	}
	fmt.Printf("prediction API serving on %s\n\n", ln.Addr())

	// The monitored server: 6 VMs, 4 fans.
	caseGen := workload.DefaultGenOptions()
	caseGen.VMCountMin, caseGen.VMCountMax = 6, 6
	caseGen.FanChoices = []int{4}
	study, err := workload.GenerateCase(caseGen, seed, "monitored")
	if err != nil {
		return err
	}
	cfg := substrate.DefaultConfig()
	cfg.Seed = seed
	host, err := substrate.OneHost(study, cfg)
	if err != nil {
		return err
	}
	discard := func(telemetry.Reading) bool { return true }

	// Open the dynamic session anchored at the healthy-configuration
	// forecast.
	features, err := dataset.Encode(study, 1800)
	if err != nil {
		return err
	}
	session, err := client.OpenSession(ctx, predictserver.SessionRequest{
		Phi0:     study.AmbientC,
		Features: features,
	})
	if err != nil {
		return err
	}
	fmt.Printf("session %s anchored at predicted ψ_stable = %.2f °C (4 fans)\n",
		session.ID(), session.StableTempC)

	// The drift detector watches the ANCHOR residual (stable forecast vs.
	// settled measurement), not the calibrated dynamic predictions —
	// calibration absorbs regime changes silently, which is exactly why a
	// separate validity check on the model's forecast is needed.
	drift, err := core.NewDriftDetector(4, 9.0) // alert when the forecast is ~3 °C off
	if err != nil {
		return err
	}

	// Agent loop: 60-virtual-second epochs; two fans fail at t=900 s. After
	// (re-)anchoring, judge the anchor only once the thermals have had time
	// to settle toward it.
	const epochS, failAtS = 60.0, 900.0
	reanchored := false
	judgeAfter := core.DefaultTBreakS
	fmt.Printf("\n%8s %10s %12s %10s %7s\n", "t(s)", "measured", "pred(t+60)", "winMSE", "drift")
	for epoch := 1; epoch <= 30; epoch++ {
		if err := host.Advance(epochS, discard); err != nil {
			return err
		}
		now := host.NowS()
		if now == failAtS {
			if err := host.FailFans(0, 2); err != nil {
				return err
			}
		}
		measured, _ := host.Temps(0)

		if _, err := session.Observe(ctx, now, measured); err != nil {
			return err
		}
		predicted, err := session.Predict(ctx, now)
		if err != nil {
			return err
		}
		// Past the settling point the anchor should match reality; feed the
		// residual to the drift detector.
		if now >= judgeAfter {
			drift.Observe(session.StableTempC, measured)
		}

		mark := ""
		if drift.Drifted() {
			mark = "DRIFT"
		}
		if epoch%3 == 0 || mark != "" {
			fmt.Printf("%8.0f %10.2f %12.2f %10.3f %7s\n",
				now, measured, predicted, drift.WindowMSE(), mark)
		}

		// On drift: re-anchor with the degraded-cooling forecast (the VMM
		// knows two fans are gone; the model predicts the new regime).
		if drift.Drifted() && !reanchored {
			degraded := study
			degraded.FanCount = 2
			degFeatures, err := dataset.Encode(degraded, 1800)
			if err != nil {
				return err
			}
			if err := session.Close(ctx); err != nil {
				return err
			}
			session, err = client.OpenSession(ctx, predictserver.SessionRequest{
				Phi0:     measured,
				Features: degFeatures,
			})
			if err != nil {
				return err
			}
			drift.Reset()
			reanchored = true
			judgeAfter = now + core.DefaultTBreakS/2
			fmt.Printf("%8.0f re-anchored: new session %s, ψ_stable(2 fans) = %.2f °C\n",
				now, session.ID(), session.StableTempC)
		}
	}
	if !reanchored {
		return fmt.Errorf("drift never fired; expected the fan failure to invalidate the anchor")
	}
	fmt.Println("\nagent loop complete: drift detected, session re-anchored to the degraded regime")
	return nil
}
