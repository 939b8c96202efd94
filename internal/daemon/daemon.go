// Package daemon is the one runtime vmtherm-fleetd, vmtherm-predictd and
// vmtherm-loadgen's in-process stack share, from flags to final checkpoint:
// the fleet flags both daemons expose (Bind), their mapping onto
// fleet.Config, the sim/trace/scrape source switch and the -checkpoint-file
// restore (NewController), the model loader and the fast-model trainer, the
// server assembly and listener (Start), the round loop with its pacing,
// /readyz gate and periodic checkpoints (Loop), and the shutdown order
// (Shutdown). The binaries differ only in the defaults they hand Bind, in
// what they declare on top, and in the hooks they hang on the loop.
package daemon

import (
	"errors"
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

// Defaults are the shared flags' defaults that differ per binary: fleetd
// always runs a fleet as fast as it can, predictd serves a model and
// attaches a real-time fleet loop only on request.
type Defaults struct {
	Addr, Model, Source string
	Racks, Hosts        int
	Speed               float64
	Loop                bool
}

// Flags holds the parsed values of the fleet flags common to both daemons.
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
	Streaming                 bool
	CheckpointFile            string
	CheckpointEveryS          float64
}

// Bind declares the shared fleet flags on fs — each name, default and usage
// text exactly once for both daemons — and returns where Parse stores them.
func Bind(fs *flag.FlagSet, d Defaults) *Flags {
	f := new(Flags)
	fs.StringVar(&f.Addr, "addr", d.Addr, "listen address for the prediction and /v1/fleet endpoints and /metrics (empty = do not serve)")
	fs.StringVar(&f.Model, "model", d.Model, "pretrained stable model path (fleetd: empty = train a fast model at startup)")
	fs.StringVar(&f.Source, "source", d.Source, "fleet telemetry source: sim | trace | scrape")
	fs.IntVar(&f.Racks, "racks", d.Racks, "number of racks (sim source)")
	fs.IntVar(&f.Hosts, "hosts", d.Hosts, "hosts per rack (sim source)")
	fs.Int64Var(&f.Seed, "seed", 2016, "simulation seed")
	fs.Float64Var(&f.ThresholdC, "threshold", 65, "hotspot threshold, °C")
	fs.Float64Var(&f.UpdateS, "update", 15, "Δ_update calibration interval, s")
	fs.Float64Var(&f.GapS, "gap", 60, "Δ_gap prediction horizon, s")
	fs.StringVar(&f.Trace, "trace", "", "trace CSV to replay (trace source)")
	fs.Float64Var(&f.Speed, "speed", d.Speed, "trace replay pacing multiplier (0 = as fast as possible)")
	fs.BoolVar(&f.Loop, "loop", d.Loop, "loop the trace when it runs out")
	fs.StringVar(&f.Scrape.URL, "scrape-url", "", "Prometheus exposition endpoint (scrape source)")
	fs.StringVar(&f.Scrape.TempMetric, "scrape-temp", "", "temperature metric name (default vmtherm_host_temp_celsius)")
	fs.StringVar(&f.Scrape.UtilMetric, "scrape-util", "", "utilization metric name (default vmtherm_host_util_ratio)")
	fs.StringVar(&f.Scrape.MemMetric, "scrape-mem", "", "memory metric name (default vmtherm_host_mem_ratio)")
	fs.StringVar(&f.Scrape.HostLabel, "scrape-host-label", "", "host label name (default host)")
	fs.Float64Var(&f.AmbientC, "ambient", 22, "δ_env assumed for ψ_stable anchors (trace/scrape sources)")
	fs.BoolVar(&f.Streaming, "streaming", false, "event-driven ingest: apply pushed readings on arrival (per-arrival calibration, live hotspot index, predict: true on /v1/fleet/ingest); rounds keep running and reconcile")
	fs.StringVar(&f.CheckpointFile, "checkpoint-file", "", "crash-safe checkpoint base path (generations at <path>.1/<path>.2): serving state is restored from the newest valid generation on start, checkpointed periodically and on shutdown (a simulated fleet carries its anchor cache only; pair the files with the model that produced them)")
	fs.Float64Var(&f.CheckpointEveryS, "checkpoint-every", 30, "seconds between periodic checkpoints (0 = final shutdown checkpoint only; requires -checkpoint-file)")
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
	cfg.StreamingIngest = f.Streaming
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

// ErrCheckpointNeedsSource refuses -checkpoint-file where there is no
// controller to restore into: predictd serving a model without a fleet loop.
var ErrCheckpointNeedsSource = errors.New("-checkpoint-file requires a fleet loop (-source sim, trace or scrape)")

// Controller is an assembled control plane: the fleet controller over the
// selected telemetry source, plus what both daemons' round loops need
// around it.
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
func (f *Flags) NewController(cfg fleet.Config, predict fleet.BatchCasePredictor) (*Controller, error) {
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
		if f.Trace == "" {
			return nil, errors.New("-source trace requires -trace <csv>")
		}
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
		if f.Scrape.URL == "" {
			return nil, errors.New("-source scrape requires -scrape-url <endpoint>")
		}
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
