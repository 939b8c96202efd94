package fleet

import (
	"fmt"
	"math"
	"runtime"

	"vmtherm/internal/anchorcache"
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
	// HorizonS is the feature-encoding horizon for ψ_stable anchors.
	HorizonS float64
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
	// AnchorCacheEntries bounds the anchor cache (default 65536 entries).
	AnchorCacheEntries int
	// AnchorQuantUtil, AnchorQuantMem and AnchorQuantAmbientC are the anchor
	// cache's quantization bucket widths (defaults 0.01, 0.02, 0.25 °C).
	// Cached-vs-exact anchor divergence is bounded by the model's input
	// sensitivity times half a bucket; the defaults keep that bound under
	// engine.ReanchorEpsC/2 so cache error can never trigger a spurious
	// re-anchor.
	AnchorQuantUtil, AnchorQuantMem, AnchorQuantAmbientC float64
	// AnchorWorkers bounds the worker pool that shards cache-miss anchor
	// fan-outs (cold rounds, mass re-anchors) across cores (default
	// min(GOMAXPROCS, 8); 1 forces sequential fan-out).
	AnchorWorkers int
	// StreamingIngest is ignored: every pushed reading is applied on
	// arrival (stream.go). It stays until bench/e2e stops setting it.
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
		HorizonS:              1800,
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
	orDefault(&c.HorizonS, d.HorizonS)
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

// resolve fills defaults and validates, returning the resolved
// configuration with the host population it is sized for: the fleet shape
// for simulated fleets, the MaxHosts bound for discovered ones.
func (c Config) resolve(simulated bool) (Config, int, error) {
	c = c.withDefaults()
	hosts := c.MaxHosts
	if simulated {
		hosts = c.Racks * c.HostsPerRack
	}
	return c, hosts, c.Validate()
}

// ingestCapacity bounds, per round, the readings a source's advance admits
// and, apart from them, the pushes the buffer holds: at least one full round
// of emissions (minimum 4096). Every host emits one reading per sample
// interval, so a source budget below one round's emissions from the full
// population — or one that pushes could spend — would silently starve the
// hosts beyond it of telemetry forever (discovered populations are sized for
// the worst case MaxHosts admits).
func (c Config) ingestCapacity(hosts int) int {
	perRound := int(math.Ceil(c.UpdateEveryS/c.SampleS)) + 1
	return max(4096, hosts*perRound)
}

// defaultQueueDepth is the default pending-queue bound: deep enough that a
// fleetd seeding pass (hosts/2 submissions at 16k hosts) never trips it.
const defaultQueueDepth = 65536

// Validate checks the configuration as New and NewWithSource run it: zero
// fields take their defaults first.
func (c Config) Validate() error {
	c = c.withDefaults()
	// NaN fails every comparison below, so it would pass each of them (a NaN
	// update interval schedules simulator ticks forever); no field gives an
	// infinity a meaning either.
	for _, f := range [...]struct {
		name string
		v    float64
	}{
		{"threshold", c.ThresholdC}, {"update interval", c.UpdateEveryS},
		{"gap", c.GapS}, {"horizon", c.HorizonS},
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
	// The cache's correctness invariant is that quantization error can
	// never push a session across the re-anchor threshold on its own: a
	// cached value within ε of exact can differ from a stored one by at
	// most 2ε, so ε must stay ≤ engine.ReanchorEpsC/2 on BOTH cache paths.
	// Source path: misses predict at the (util, mem) bucket center, so
	// ε = sensitivity × half a configured bucket (the bound the property
	// test pins across the grid). Sim path: misses predict the actual
	// deployment snapshot under quarter-width load buckets (full-bucket
	// first-member error = half the source ε) plus half an ambient
	// bucket. Reject loud rather than oscillate silently.
	srcEps := c.AnchorQuantUtil/2*anchorUtilSensC + c.AnchorQuantMem/2*anchorMemSensC
	simEps := srcEps/2 + c.AnchorQuantAmbientC/2*anchorAmbientSens
	eps := max(srcEps, simEps)
	if lim := engine.ReanchorEpsC / 2; eps > lim+1e-9 {
		return fmt.Errorf("fleet: anchor quantization epsilon %.3f°C (source %.3f, sim %.3f) exceeds "+
			"half the re-anchor threshold, %.3f°C (buckets util %v, mem %v, ambient %v°C at nominal "+
			"sensitivities %v/%v °C per unit, %v °C/°C); narrow the buckets",
			eps, srcEps, simEps, lim, c.AnchorQuantUtil, c.AnchorQuantMem, c.AnchorQuantAmbientC,
			anchorUtilSensC, anchorMemSensC, anchorAmbientSens)
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
	return engine.Config{UpdateEveryS: c.UpdateEveryS, GapS: c.GapS, RoundWorkers: c.PhysWorkers}
}
