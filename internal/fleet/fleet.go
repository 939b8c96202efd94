// Package fleet is the thermal control plane that closes the paper's
// proactive-management loop at datacenter scale: per-host telemetry streams
// through a bounded ingest pipeline into the unified session engine
// (internal/engine) — per-host dynamic prediction sessions calibrated every
// Δ_update as in Eqs. 3–8, with batch ψ_stable anchors fanned through the
// SVM batch kernel — and each round rolls the Δ_gap-ahead predicted
// temperatures into a rack/DC hotspot map (cluster.DetectHotspots), driving
// thermal-aware placement and migration proposals for incoming VM requests:
// acting on where temperature is *going* rather than where it is.
//
// Telemetry is pluggable (telemetry.Source): the same closed loop runs
// against the built-in fleet simulator, a deterministic trace replay of
// recorded experiments, or a live Prometheus-exposition scraper — swap the
// source, keep the engine.
//
// The controller degrades gracefully: hosts whose telemetry has gone stale
// have their prediction uncertainty widened and are excluded from the
// hotspot map instead of poisoning it (and are evicted entirely once dark
// beyond the eviction horizon), and every round reports latency, staleness
// and drop metrics so the degradation is observable.
//
// One round (Controller.RunRound, round.go) is this fixed sequence of stages,
// each a method reading and writing one stack-allocated roundState. Per-host
// state lives in the host table (hosttable.go): a host id is resolved to a
// slot index once, in the drain, and every later stage indexes slots.
//
//	advanceSource    Δ_update → source clock, source error (fatal for sim)
//	drainIngest      pipeline → host table (newest reading per slot, membership), drained/discarded counts
//	resolveAnchors   slot readings → ψ_stable per slot, cache hits/misses, fan-out
//	engineRound      clock, slots (reading, anchor, session handle) → predictions, session stats
//	buildSnapshot    predictions, slot readings → next generation (hotspots, stale, maps), round++
//	reconcileStream  generation hotspots → streaming index drift, per-round stream deltas
//	migrate          generation → applied moves, fresh proposals (simulated fleets)
//	publish          generation → published snapshot (immutable from here on)
//	drainPlacements  pending queue, published map → placed/queued/rejected tally
//	report           roundState → RoundReport
package fleet

import (
	"fmt"
	"sync"
	"time"

	"vmtherm/internal/core"
	"vmtherm/internal/dataset"
	"vmtherm/internal/engine"
	"vmtherm/internal/workload"
)

// BatchCasePredictor predicts ψ_stable for many workload cases in one call.
// The production implementation is StableBatchPredictor (feature encoding +
// StablePredictor.PredictBatchInto through the SVM batch kernel); tests
// inject synthetic physics instead. Implementations must be safe for
// concurrent calls: the controller shards cold-round anchor fan-outs across
// a worker pool. The cases alias controller scratch (per-host deployment
// views, the wave arena) and are valid only until the call returns.
type BatchCasePredictor func(cases []workload.Case) ([]float64, error)

// stableScratch is the per-call working memory StableBatchPredictor pools:
// one flat feature matrix, its row headers, the model scratch, and the
// encoder's profile memo (reset per call: it keys on the caller's memory).
type stableScratch struct {
	feat []float64
	rows [][]float64
	ps   core.PredictScratch
	memo dataset.ProfileMemo
}

// StableBatchPredictor adapts a trained stable model into the batch shape
// the controller fans prediction rounds through. horizonS is the averaging
// horizon for dynamic profiles (use the experiment duration, e.g. 1800).
// Cases are encoded into a pooled flat feature matrix and evaluated through
// the zero-alloc batch spine, so concurrent shards share nothing but the
// (read-only) model. Consecutive cases that share a VM's task list — a
// placement wave's candidate — integrate its profiles once per call.
func StableBatchPredictor(model *core.StablePredictor, horizonS float64) BatchCasePredictor {
	var pool sync.Pool
	nf := dataset.NumFeatures()
	return func(cases []workload.Case) ([]float64, error) {
		s, _ := pool.Get().(*stableScratch)
		if s == nil {
			s = new(stableScratch)
		}
		defer pool.Put(s)
		s.memo.Reset()
		if cap(s.feat) < len(cases)*nf {
			s.feat = make([]float64, len(cases)*nf)
		}
		s.feat = s.feat[:len(cases)*nf]
		if cap(s.rows) < len(cases) {
			s.rows = make([][]float64, len(cases))
		}
		s.rows = s.rows[:len(cases)]
		for i, c := range cases {
			row := s.feat[i*nf : (i+1)*nf : (i+1)*nf]
			if err := s.memo.EncodeInto(c, horizonS, row); err != nil {
				return nil, fmt.Errorf("fleet: encoding %s: %w", c.Name, err)
			}
			s.rows[i] = row
		}
		out := make([]float64, len(cases))
		if err := model.PredictBatchInto(s.rows, out, &s.ps); err != nil {
			return nil, err
		}
		return out, nil
	}
}

// Prediction is one host's Δ_gap-ahead temperature estimate, as produced by
// the session engine.
type Prediction = engine.Prediction

// Hotspot is one host whose *predicted* temperature exceeds the threshold.
type Hotspot struct {
	HostID         string  `json:"host_id"`
	PredictedTempC float64 `json:"predicted_temp_c"`
	MarginC        float64 `json:"margin_c"`
	UncertaintyC   float64 `json:"uncertainty_c"`
}

// hotspotOf is the one place a prediction becomes a hotspot entry; callers
// have already checked p is fresh and over thresholdC.
func hotspotOf(p *Prediction, thresholdC float64) Hotspot {
	return Hotspot{
		HostID:         p.HostID,
		PredictedTempC: p.TempC,
		MarginC:        p.TempC - thresholdC,
		UncertaintyC:   p.UncertaintyC,
	}
}

// Snapshot is the control plane's published view after a round: what the
// fleet API serves and what schedulers consume.
//
// Snapshots are published as immutable, epoch-versioned generations:
// ViewSnapshot lends the generation's maps and slices WITHOUT copying, for
// the duration of its callback, so every field — including map contents —
// is strictly read-only for consumers. Mutating a borrowed map is a data
// race.
type Snapshot struct {
	Round      int
	SimTimeS   float64
	GapS       float64
	ThresholdC float64
	// Hotspots is sorted by descending margin.
	Hotspots []Hotspot
	// Predicted maps host → Δ_gap-ahead temperature (stale hosts excluded).
	Predicted map[string]float64
	// Latest maps host → newest telemetry reading behind the round.
	Latest map[string]Reading
	// StaleHosts lists hosts degraded for stale telemetry, sorted.
	StaleHosts []string
}

// MigrationProposal asks to move a VM off a predicted hotspot.
type MigrationProposal struct {
	VMID       string
	FromHostID string
	ToHostID   string
	// MarginC is the source hotspot's margin when proposed.
	MarginC float64
}

// RoundReport carries one control round's metrics.
type RoundReport struct {
	Round    int
	SimTimeS float64
	// Latency is the wall-clock cost of the round (source advance + control).
	Latency time.Duration
	// ControlLatency is the control-plane share (ingest drain → decisions),
	// excluding the source advance (simulated physics, replay, or scrape).
	ControlLatency time.Duration
	Hosts          int
	SessionsLive   int
	// TelemetryDrained counts readings consumed this round; DroppedTotal and
	// SupersededTotal are the cumulative ingest drop / supersede counters.
	TelemetryDrained int
	DroppedTotal     int64
	SupersededTotal  int64
	StaleHosts       int
	MaxStalenessS    float64
	// AnchorFailures counts observed hosts left without a session because
	// the model produced an unusable ψ_stable anchor (graceful blindness
	// must be visible, never silent).
	AnchorFailures int
	// AnchorHits and AnchorMisses count this round's anchor-cache outcomes;
	// AnchorFanout is the (key-deduplicated) miss batch actually fanned
	// through the batch predictor — the number that used to equal the whole
	// tracked population every round. With the cache disabled every anchored
	// host counts as a miss.
	AnchorHits, AnchorMisses, AnchorFanout int
	// AnchorEvictedTotal is the cumulative anchor-cache eviction counter.
	AnchorEvictedTotal int64
	// Reanchored and Evicted count engine session-lifecycle events.
	Reanchored int
	Evicted    int
	// DiscardedHosts counts hosts dropped at the MaxHosts population bound
	// (source-driven fleets only).
	DiscardedHosts int
	// SourceError records a non-fatal source failure this round (live
	// sources fail transiently; the loop degrades instead of aborting).
	SourceError string
	// RecentErrors is a bounded ring of recent source/ingest failures
	// ("round N: ..."), newest last: one round's SourceError vanishes with
	// the next report, so without the ring a blackout that ended three
	// rounds ago is undiagnosable from logs. Empty (and omitted from JSON,
	// keeping round-driven traces byte-stable) on fleets that never erred.
	RecentErrors  []string `json:",omitempty"`
	Hotspots      int
	MaxPredictedC float64
	// Placements, Queued and Rejections count the round drain's typed
	// placement decisions (Queued requests stay parked for the next round).
	Placements    int
	Queued        int
	Rejections    int
	ProposedMoves int
	AppliedMoves  int
	// StreamApplied, StreamCreated and StreamDeferred count what the
	// streaming ingest path did since the previous round boundary (readings
	// applied on arrival, sessions created inline from warm anchors,
	// readings deferred to this round); StreamHotDrift counts hotspot-index
	// entries this round's full recompute had to correct at reconciliation.
	// All zero — and omitted from JSON, so round-driven traces are
	// byte-stable — when streaming ingest is off.
	StreamApplied  int64 `json:",omitempty"`
	StreamCreated  int64 `json:",omitempty"`
	StreamDeferred int64 `json:",omitempty"`
	StreamHotDrift int   `json:",omitempty"`
}
