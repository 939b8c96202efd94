package fleet

import (
	"fmt"
	"math"
	"runtime"

	"vmtherm/internal/anchorcache"
	"vmtherm/internal/core"
	"vmtherm/internal/engine"
	"vmtherm/internal/substrate"
	"vmtherm/internal/vmm"
)

// Config parameterizes the control plane. Zero values take defaults via
// (Config).withDefaults; see DefaultConfig for the reference shape.
type Config struct {
	// Config is the simulated substrate: fleet shape, thermal and sensor
	// models, CRAC, tick and sample intervals, seed (simulated fleets only;
	// the sample interval also sizes a source-driven fleet's ingest buffer).
	substrate.Config
	// FanCount is the fan configuration assumed for every host (θ_fan).
	FanCount int
	// HostShape is the per-host capacity.
	HostShape vmm.HostConfig
	// ThresholdC is the hotspot threshold applied to predicted temperatures.
	ThresholdC float64
	// UpdateEveryS is Δ_update, the calibration (and round) interval.
	UpdateEveryS float64
	// GapS is Δ_gap, the prediction horizon the hotspot map looks ahead.
	GapS float64
	// Lambda is the calibration learning rate λ.
	Lambda float64
	// TBreakS and CurveDeltaS shape the Eq. (3) pre-defined curve.
	TBreakS, CurveDeltaS float64
	// HorizonS is the feature-encoding horizon for ψ_stable anchors.
	HorizonS float64
	// StaleAfterS is how old telemetry may get before a host is degraded
	// (uncertainty widened, excluded from the hotspot map).
	StaleAfterS float64
	// EvictAfterS is how old telemetry may get before a host's session is
	// evicted entirely (default 20 × StaleAfterS).
	EvictAfterS float64
	// ReanchorEpsC re-anchors a session when its predicted ψ_stable moves by
	// more than this (deployment changed underneath it).
	ReanchorEpsC float64
	// UncertaintyBaseC and UncertaintyPerSC shape per-prediction uncertainty:
	// base + perS · staleness.
	UncertaintyBaseC, UncertaintyPerSC float64
	// IngestBuffer bounds the telemetry pipeline: at most this many readings
	// wait for the next round, and at most twice this many plus one
	// 512-reading chunk of a source advance are held in memory (one buffer
	// filling while the round drains the other). 0
	// auto-sizes to at least one full round of emissions — the simulated
	// fleet's own sensor sweep volume, or MaxHosts × samples-per-round for
	// source-driven fleets (minimum 4096 either way) — because a default
	// smaller than the round volume would silently starve the hosts beyond
	// it of telemetry forever.
	IngestBuffer int
	// MaxMigrationsPerRound bounds reconciliation work per round; 0 disables
	// migration (a bounded set of hottest-first proposals is still derived
	// each round for observability — see propose for the bound).
	MaxMigrationsPerRound int
	// Admission bounds what the placement plane accepts (headroom budget,
	// queue depth, per-round placement cap); see AdmissionPolicy. The zero
	// value preserves the legacy behaviour.
	Admission AdmissionPolicy
	// SourceAmbientC is δ_env assumed when synthesizing ψ_stable anchor
	// cases for source-driven fleets (trace replay, scraping), where no
	// datacenter model supplies per-slot inlet temperatures.
	SourceAmbientC float64
	// MaxHosts bounds the host population a source-driven controller will
	// track: hosts discovered beyond the bound are discarded (and counted)
	// so a misbehaving exporter cannot grow memory without limit. Simulated
	// fleets are bounded by their own shape.
	MaxHosts int
	// AnchorCacheDisabled turns off ψ_stable anchor memoization: every round
	// fans every tracked host through the batch predictor (the pre-cache
	// behaviour). Leave enabled except for A/B measurement.
	AnchorCacheDisabled bool
	// AnchorCacheEntries bounds the anchor cache (default 65536 entries).
	AnchorCacheEntries int
	// AnchorQuantUtil, AnchorQuantMem and AnchorQuantAmbientC are the anchor
	// cache's quantization bucket widths (defaults 0.01, 0.02, 0.25 °C).
	// Cached-vs-exact anchor divergence is bounded by the model's input
	// sensitivity times half a bucket; the defaults keep that bound under
	// ReanchorEpsC/2 so cache error can never trigger a spurious re-anchor.
	AnchorQuantUtil, AnchorQuantMem, AnchorQuantAmbientC float64
	// AnchorWorkers bounds the worker pool that shards cache-miss anchor
	// fan-outs (cold rounds, mass re-anchors) across cores (default
	// min(GOMAXPROCS, 8); 1 forces sequential fan-out).
	AnchorWorkers int
	// StreamingIngest applies pushed readings on arrival — observe,
	// calibrate, predict, and update an incremental hotspot index — instead
	// of parking them in the pipeline until the next round. The pipeline and
	// the batch round still run (and reconcile the index every round); see
	// stream.go. Off by default: round-driven deployments pay nothing.
	StreamingIngest bool
	// PhysWorkers bounds the worker pool the simulated-physics tick shards
	// racks across (default min(GOMAXPROCS, 8); 1 forces the serial tick).
	// Results are bit-identical for every worker count: racks advance
	// independently and each shard's reduction order is fixed. The same
	// bound shards the engine round and the anchor case builds, so
	// source-driven fleets read it too.
	PhysWorkers int
}

// DefaultConfig is a 4-rack × 16-host fleet with the paper's dynamic
// parameters (λ=0.8, Δ_update=15 s, Δ_gap=60 s, t_break=600 s).
func DefaultConfig() Config {
	return Config{
		Config:                substrate.DefaultConfig(),
		FanCount:              4,
		HostShape:             vmm.DefaultHostConfig(),
		ThresholdC:            65,
		UpdateEveryS:          15,
		GapS:                  60,
		Lambda:                core.DefaultLambda,
		TBreakS:               core.DefaultTBreakS,
		CurveDeltaS:           core.DefaultCurveDelta,
		HorizonS:              1800,
		StaleAfterS:           45,
		ReanchorEpsC:          1.0,
		UncertaintyBaseC:      0.5,
		UncertaintyPerSC:      0.05,
		IngestBuffer:          0, // auto-sized per fleet shape; see the field doc
		MaxMigrationsPerRound: 1,
		Admission:             AdmissionPolicy{MaxQueueDepth: defaultQueueDepth},
		SourceAmbientC:        22,
		MaxHosts:              4096,
	}
}

// withDefaults fills zero-valued fields from DefaultConfig.
func (c Config) withDefaults() Config {
	d := DefaultConfig()
	q := anchorcache.DefaultQuantizer()
	workers := min(runtime.GOMAXPROCS(0), 8)
	orDefault(&c.Server, d.Server)
	orDefault(&c.Sensor, d.Sensor)
	orDefault(&c.CRAC, d.CRAC)
	orDefault(&c.RackSpreadC, d.RackSpreadC)
	orDefault(&c.TickS, d.TickS)
	orDefault(&c.SampleS, d.SampleS)
	orDefault(&c.HostShape, d.HostShape)
	orDefault(&c.FanCount, d.FanCount)
	orDefault(&c.ThresholdC, d.ThresholdC)
	orDefault(&c.UpdateEveryS, d.UpdateEveryS)
	orDefault(&c.GapS, d.GapS)
	orDefault(&c.Lambda, d.Lambda)
	orDefault(&c.TBreakS, d.TBreakS)
	orDefault(&c.CurveDeltaS, d.CurveDeltaS)
	orDefault(&c.HorizonS, d.HorizonS)
	orDefault(&c.StaleAfterS, 3*c.UpdateEveryS)
	orDefault(&c.EvictAfterS, 20*c.StaleAfterS)
	orDefault(&c.ReanchorEpsC, d.ReanchorEpsC)
	orDefault(&c.UncertaintyBaseC, d.UncertaintyBaseC)
	orDefault(&c.UncertaintyPerSC, d.UncertaintyPerSC)
	orDefault(&c.IngestBuffer, 4096)
	orDefault(&c.SourceAmbientC, d.SourceAmbientC)
	orDefault(&c.MaxHosts, d.MaxHosts)
	orDefault(&c.AnchorCacheEntries, 65536)
	orDefault(&c.AnchorQuantUtil, q.UtilQuant)
	orDefault(&c.AnchorQuantMem, q.MemQuant)
	orDefault(&c.AnchorQuantAmbientC, q.AmbientQuantC)
	orDefault(&c.AnchorWorkers, workers)
	orDefault(&c.PhysWorkers, workers)
	orDefault(&c.Admission.MaxQueueDepth, defaultQueueDepth)
	return c
}

// orDefault sets *v to def when *v is its type's zero value.
func orDefault[T comparable](v *T, def T) {
	var zero T
	if *v == zero {
		*v = def
	}
}

// resolve fills defaults, auto-sizes an unset IngestBuffer and validates,
// returning the resolved configuration with the host population it was
// sized for: the fleet shape for simulated fleets, the MaxHosts bound for
// discovered ones.
func (c Config) resolve(simulated bool) (Config, int, error) {
	autoBuffer := c.IngestBuffer == 0
	c = c.withDefaults()
	hosts := c.MaxHosts
	if simulated {
		hosts = c.Racks * c.HostsPerRack
	}
	if autoBuffer {
		// Every host emits one reading per sample interval, so a default
		// buffer smaller than one round's emissions from the full population
		// would silently starve the hosts beyond it of telemetry forever
		// (discovered populations are sized for the worst case MaxHosts
		// admits). An explicit IngestBuffer is honored as given.
		perRound := int(math.Ceil(c.UpdateEveryS/c.SampleS)) + 1
		if need := hosts * perRound; need > c.IngestBuffer {
			c.IngestBuffer = need
		}
	}
	return c, hosts, c.Validate()
}

// defaultQueueDepth is the default pending-queue bound: deep enough that a
// fleetd seeding pass (hosts/2 submissions at 16k hosts) never trips it.
const defaultQueueDepth = 65536

// Validate checks the configuration.
func (c Config) Validate() error {
	// NaN fails every comparison below, so it would pass each of them (a NaN
	// update interval schedules simulator ticks forever); no field gives an
	// infinity a meaning either.
	for _, f := range [...]struct {
		name string
		v    float64
	}{
		{"threshold", c.ThresholdC}, {"update interval", c.UpdateEveryS},
		{"gap", c.GapS}, {"lambda", c.Lambda}, {"t_break", c.TBreakS}, {"curve delta", c.CurveDeltaS},
		{"horizon", c.HorizonS}, {"stale-after", c.StaleAfterS}, {"evict-after", c.EvictAfterS},
		{"re-anchor epsilon", c.ReanchorEpsC},
		{"uncertainty base", c.UncertaintyBaseC}, {"uncertainty per second", c.UncertaintyPerSC},
		{"headroom budget", c.Admission.HeadroomBudgetC}, {"source ambient", c.SourceAmbientC},
		{"anchor util bucket", c.AnchorQuantUtil}, {"anchor mem bucket", c.AnchorQuantMem},
		{"anchor ambient bucket", c.AnchorQuantAmbientC},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("fleet: %s must be finite, got %v", f.name, f.v)
		}
	}
	if err := c.Config.Validate(); err != nil {
		return err
	}
	if err := c.HostShape.Validate(); err != nil {
		return err
	}
	if c.UpdateEveryS <= 0 || c.GapS <= 0 {
		return fmt.Errorf("fleet: update interval %v and gap %v must be > 0", c.UpdateEveryS, c.GapS)
	}
	if c.StaleAfterS <= 0 {
		return fmt.Errorf("fleet: stale-after must be > 0, got %v", c.StaleAfterS)
	}
	if c.IngestBuffer < 1 {
		return fmt.Errorf("fleet: ingest buffer %d < 1", c.IngestBuffer)
	}
	if c.MaxMigrationsPerRound < 0 {
		return fmt.Errorf("fleet: negative migration bound %d", c.MaxMigrationsPerRound)
	}
	if c.Admission.HeadroomBudgetC < 0 {
		return fmt.Errorf("fleet: headroom budget %v invalid", c.Admission.HeadroomBudgetC)
	}
	if c.Admission.MaxQueueDepth < -1 {
		return fmt.Errorf("fleet: queue depth %d < -1", c.Admission.MaxQueueDepth)
	}
	if c.Admission.MaxPlacementsPerRound < 0 {
		return fmt.Errorf("fleet: negative placement cap %d", c.Admission.MaxPlacementsPerRound)
	}
	if c.MaxHosts < 1 {
		return fmt.Errorf("fleet: max hosts %d < 1", c.MaxHosts)
	}
	if c.AnchorCacheEntries < 2 {
		return fmt.Errorf("fleet: anchor cache entries %d < 2", c.AnchorCacheEntries)
	}
	if c.AnchorQuantUtil < 0 || c.AnchorQuantMem < 0 || c.AnchorQuantAmbientC < 0 {
		return fmt.Errorf("fleet: negative anchor quantization (%v, %v, %v)",
			c.AnchorQuantUtil, c.AnchorQuantMem, c.AnchorQuantAmbientC)
	}
	if !c.AnchorCacheDisabled {
		// The cache's correctness invariant is that quantization error can
		// never push a session across the re-anchor threshold on its own: a
		// cached value within ε of exact can differ from a stored one by at
		// most 2ε, so ε must stay ≤ ReanchorEpsC/2 on BOTH cache paths.
		// Source path: misses predict at the (util, mem) bucket center, so
		// ε = sensitivity × half a configured bucket (the bound the property
		// test pins across the grid). Sim path: misses predict the actual
		// deployment snapshot under quarter-width load buckets (full-bucket
		// first-member error = half the source ε) plus half an ambient
		// bucket. Reject loud rather than oscillate silently: widening
		// buckets requires widening ReanchorEpsC to match.
		srcEps := c.AnchorQuantUtil/2*anchorUtilSensC + c.AnchorQuantMem/2*anchorMemSensC
		simEps := srcEps/2 + c.AnchorQuantAmbientC/2*anchorAmbientSens
		eps := max(srcEps, simEps)
		if lim := c.ReanchorEpsC / 2; eps > lim+1e-9 {
			return fmt.Errorf("fleet: anchor quantization epsilon %.3f°C (source %.3f, sim %.3f) exceeds "+
				"ReanchorEpsC/2 = %.3f°C (buckets util %v, mem %v, ambient %v°C at nominal sensitivities "+
				"%v/%v °C per unit, %v °C/°C); narrow the buckets or raise ReanchorEpsC",
				eps, srcEps, simEps, lim, c.AnchorQuantUtil, c.AnchorQuantMem, c.AnchorQuantAmbientC,
				anchorUtilSensC, anchorMemSensC, anchorAmbientSens)
		}
	}
	if c.AnchorWorkers < 1 {
		return fmt.Errorf("fleet: anchor workers %d < 1", c.AnchorWorkers)
	}
	if c.PhysWorkers < 1 {
		return fmt.Errorf("fleet: phys workers %d < 1", c.PhysWorkers)
	}
	return nil
}

// Nominal worst-case ψ_stable sensitivities used to bound anchor-cache
// quantization error in Validate: a full CPU-load swing is worth ~75 °C of
// die temperature on the reference server (the synthetic predictor's
// constant and the simulated substrate's full-load rise), memory activity a
// few degrees, and ambient tracks roughly 1:1.
const (
	anchorUtilSensC   = 75.0
	anchorMemSensC    = 12.0
	anchorAmbientSens = 1.0
)

// engineConfig maps the fleet configuration onto the session engine's. The
// engine round inherits the physics worker bound: the same cores that shard
// the rack ticks shard the per-host session pass at >= 1024 hosts.
func (c Config) engineConfig() engine.Config {
	return engine.Config{
		Lambda:           c.Lambda,
		UpdateEveryS:     c.UpdateEveryS,
		GapS:             c.GapS,
		TBreakS:          c.TBreakS,
		CurveDeltaS:      c.CurveDeltaS,
		StaleAfterS:      c.StaleAfterS,
		EvictAfterS:      c.EvictAfterS,
		ReanchorEpsC:     c.ReanchorEpsC,
		UncertaintyBaseC: c.UncertaintyBaseC,
		UncertaintyPerSC: c.UncertaintyPerSC,
		RoundWorkers:     c.PhysWorkers,
	}
}
