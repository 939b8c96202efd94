// Package daemon is the one runtime vmtherm-fleetd and vmtherm-loadgen's
// in-process stack share, from flags to final checkpoint: the fleet flags
// (Bind), their mapping onto fleet.Config, the sim/trace/scrape source
// switch and the -checkpoint-file restore (NewController), the model loader
// and the fast-model trainer, the server assembly and listener (Start), the
// round loop with its pacing, /readyz gate and periodic checkpoints (Loop),
// and the shutdown order (Shutdown).
package daemon

import (
	"flag"
	"fmt"
	"log"
	"math"
	"os"

	"vmtherm/internal/checkpoint"
	"vmtherm/internal/core"
	"vmtherm/internal/dataset"
	"vmtherm/internal/fleet"
	"vmtherm/internal/telemetry"
)

// Flags holds the parsed values of the fleet flags.
type Flags struct {
	Addr, Model, Source       string
	Racks, Hosts              int
	Seed                      int64
	ThresholdC, UpdateS, GapS float64
	Trace                     string
	Speed                     float64
	Loop                      bool
	Scrape                    telemetry.ScrapeConfig
	AmbientC                  float64
	CheckpointFile            string
	CheckpointEveryS          float64
}

// Bind declares the fleet flags on fs — each name, default and usage text
// exactly once — and returns where Parse stores them. A usage text that ends
// in "(-source X)" or "(requires -Y)" names what the flag needs to have any
// effect; vmtherm-fleetd refuses the flag without it.
func Bind(fs *flag.FlagSet) *Flags {
	f := new(Flags)
	fs.StringVar(&f.Addr, "addr", "", "listen address for the prediction and /v1/fleet endpoints and /metrics (empty = do not serve)")
	fs.StringVar(&f.Model, "model", "", "pretrained stable model path (empty = train a fast model at startup)")
	fs.StringVar(&f.Source, "source", "sim", "fleet telemetry source: sim | trace | scrape | none (none: the prediction API alone, no fleet; needs -addr)")
	fs.IntVar(&f.Racks, "racks", 8, "number of racks (-source sim)")
	fs.IntVar(&f.Hosts, "hosts", 32, "hosts per rack (-source sim)")
	fs.Int64Var(&f.Seed, "seed", 2016, "simulation and fast-model training seed")
	fs.Float64Var(&f.ThresholdC, "threshold", 65, "hotspot threshold, °C")
	fs.Float64Var(&f.UpdateS, "update", 15, "Δ_update calibration interval, s")
	fs.Float64Var(&f.GapS, "gap", 60, "Δ_gap prediction horizon, s")
	fs.StringVar(&f.Trace, "trace", "", "trace CSV to replay (-source trace)")
	fs.Float64Var(&f.Speed, "speed", 0, "replay pacing multiplier, 0 = as fast as possible (-source trace)")
	fs.BoolVar(&f.Loop, "loop", false, "loop the trace when it runs out (-source trace)")
	fs.StringVar(&f.Scrape.URL, "scrape-url", "", "Prometheus exposition endpoint (-source scrape)")
	fs.StringVar(&f.Scrape.TempMetric, "scrape-temp", "", "temperature metric name, default vmtherm_host_temp_celsius (-source scrape)")
	fs.StringVar(&f.Scrape.UtilMetric, "scrape-util", "", "utilization metric name, default vmtherm_host_util_ratio (-source scrape)")
	fs.StringVar(&f.Scrape.MemMetric, "scrape-mem", "", "memory metric name, default vmtherm_host_mem_ratio (-source scrape)")
	fs.StringVar(&f.Scrape.HostLabel, "scrape-host-label", "", "host label name, default host (-source scrape)")
	fs.Float64Var(&f.AmbientC, "ambient", 22, "δ_env assumed for ψ_stable anchors (-source trace or scrape)")
	fs.StringVar(&f.CheckpointFile, "checkpoint-file", "", "crash-safe checkpoint base path (generations at <path>.1/<path>.2): serving state is restored from the newest valid generation on start, checkpointed periodically and on shutdown (a simulated fleet carries its anchor cache only; pair the files with the model that produced them)")
	fs.Float64Var(&f.CheckpointEveryS, "checkpoint-every", 30, "seconds between periodic checkpoints, 0 = final shutdown checkpoint only (requires -checkpoint-file)")
	return f
}

// Config maps the flags onto the fleet configuration: the one place a flag
// becomes a Config field. Callers adjust the result for flags of their own
// before handing it to NewController.
func (f *Flags) Config() fleet.Config {
	cfg := fleet.DefaultConfig()
	cfg.Racks = f.Racks
	cfg.HostsPerRack = f.Hosts
	cfg.ThresholdC = f.ThresholdC
	cfg.UpdateEveryS = f.UpdateS
	cfg.GapS = f.GapS
	cfg.SourceAmbientC = f.AmbientC
	cfg.Seed = f.Seed
	return cfg
}

// LoadModel reads a stable model written by vmtherm-train.
func LoadModel(path string) (*core.StablePredictor, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	model, err := core.LoadStable(f)
	if err != nil {
		return nil, fmt.Errorf("loading model: %w", err)
	}
	return model, nil
}

// Controller is an assembled control plane: the fleet controller over the
// selected telemetry source, plus what the round loop needs around it.
type Controller struct {
	*fleet.Controller
	// Trace is the replay source under -source trace (nil otherwise); a
	// loop bounded by the trace polls its Done.
	Trace *telemetry.TraceSource
	// Ckpt owns -checkpoint-file (nil without the flag; its methods are
	// nil-safe). Runtime.Loop calls Ckpt.SaveIfDue(c.Checkpoint, false).
	Ckpt *checkpoint.Manager
	// PaceS is the wall-clock seconds one round should take when it is paced
	// to real time: the controller's resolved Δ_update — never the raw
	// -update flag, which may be 0 — divided by the replay speed for traces.
	PaceS float64
}

// NewController builds the controller the flags describe over cfg (normally
// f.Config(), adjusted): it refuses meaningless flag values, selects the
// source, then restores -checkpoint-file into it.
func (f *Flags) NewController(cfg fleet.Config, predict fleet.Predictor) (*Controller, error) {
	// NaN or a negative value would switch periodic checkpoints off or slip
	// past the replay's sign check.
	names := [...]string{"checkpoint-every", "speed"}
	for i, v := range [...]float64{f.CheckpointEveryS, f.Speed} {
		if !(v >= 0 && v <= math.MaxFloat64) {
			return nil, fmt.Errorf("-%s %v: want 0 or a positive finite number", names[i], v)
		}
	}
	c := new(Controller)
	var desc string
	var err error
	switch f.Source {
	case "sim":
		desc = fmt.Sprintf("%d racks × %d hosts = %d servers", cfg.Racks, cfg.HostsPerRack, cfg.Racks*cfg.HostsPerRack)
		c.Controller, err = fleet.New(cfg, predict)
	case "trace":
		var readings []telemetry.Reading
		if readings, err = readTrace(f.Trace); err != nil {
			return nil, fmt.Errorf("reading trace: %w", err)
		}
		c.Trace, err = telemetry.NewTraceSource(readings, telemetry.TraceOptions{Speed: f.Speed, Loop: f.Loop})
		if err != nil {
			return nil, err
		}
		desc = fmt.Sprintf("replaying %d readings from %s (speed %.0gx, loop %v)", len(readings), f.Trace, f.Speed, f.Loop)
		c.Controller, err = fleet.NewWithSource(cfg, c.Trace, predict)
	case "scrape":
		var src *telemetry.ScrapeSource
		if src, err = telemetry.NewScrapeSource(f.Scrape); err != nil {
			return nil, err
		}
		desc = "scraping " + f.Scrape.URL
		c.Controller, err = fleet.NewWithSource(cfg, src, predict)
	default:
		return nil, fmt.Errorf("unknown -source %q (want sim, trace or scrape)", f.Source)
	}
	if err != nil {
		return nil, err
	}
	resolved := c.Config()
	c.PaceS = resolved.UpdateEveryS
	if c.Trace != nil && f.Speed > 0 {
		c.PaceS /= f.Speed
	}
	log.Printf("fleet: %s, Δ_update %.0fs, Δ_gap %.0fs, threshold %.1f°C",
		desc, resolved.UpdateEveryS, resolved.GapS, resolved.ThresholdC)

	if f.CheckpointFile != "" {
		if err := c.restore(f); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// readTrace loads a trace CSV written by fleetd -record.
func readTrace(path string) ([]telemetry.Reading, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return dataset.ReadTrace(f)
}

// restore roots the checkpoint manager and restores the serving state from
// the newest valid generation: over trace/scrape all of it (engine sessions
// with their γ calibration, round counter, pending placements, hotspot
// index, anchor cache), so a restarted control plane continues exactly where
// the previous process stopped; over a simulated fleet the anchor cache,
// which is all a checkpoint carries there.
func (c *Controller) restore(f *Flags) error {
	c.Ckpt = checkpoint.NewManager(f.CheckpointFile, f.CheckpointEveryS)
	st, err := c.Ckpt.Restore()
	switch {
	case err != nil:
		// Corrupt-only generations: visible (and counted) but not fatal — a
		// daemon that refuses to start over a bad checkpoint trades one
		// outage for another.
		log.Printf("checkpoint restore failed: %v; starting cold", err)
	case st == nil:
		log.Printf("no checkpoint at %s.{1,2}; cold start", f.CheckpointFile)
	default:
		if err := c.Restore(st); err != nil {
			return fmt.Errorf("restoring checkpoint: %w", err)
		}
		if st.SourceName == "sim" {
			log.Printf("restored %d anchors from checkpoint %s (simulated fleet: sessions recalibrate)",
				c.AnchorCacheLen(), f.CheckpointFile)
		} else {
			log.Printf("restored %d sessions at round %d from checkpoint %s",
				c.RestoredSessions(), st.Round, f.CheckpointFile)
		}
	}
	return nil
}

// Close is the shutdown half of the assembly; Runtime.Shutdown calls it once
// HTTP has drained and the round loop has exited: the final checkpoint then
// captures everything the next process needs to continue warm.
func (c *Controller) Close() error {
	st, err := c.Ckpt.SaveIfDue(c.Checkpoint, true)
	if err != nil {
		return fmt.Errorf("final checkpoint: %w", err)
	}
	switch {
	case st == nil:
	case st.SourceName == "sim":
		log.Printf("final checkpoint written to %s (simulated fleet: %d anchors)", c.Ckpt.Path(), c.AnchorCacheLen())
	default:
		log.Printf("final checkpoint written to %s (round %d, %d sessions)",
			c.Ckpt.Path(), st.Round, len(st.Engine.Sessions))
	}
	return nil
}
