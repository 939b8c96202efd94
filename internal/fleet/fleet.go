// Package fleet is the thermal control plane that closes the paper's
// proactive-management loop at datacenter scale: per-host telemetry, bounded
// per round, streams into the unified session engine
// (internal/engine) — per-host dynamic prediction sessions calibrated every
// Δ_update as in Eqs. 3–8, with batch ψ_stable anchors fanned through the
// SVM batch kernel — and each round rolls the Δ_gap-ahead predicted
// temperatures into a hot set (ordered by margin only for the readers that
// ask, Snapshot.Hotspots), driving thermal-aware placement and migration
// proposals for incoming VM requests: acting on where temperature is
// *going* rather than where it is.
//
// Telemetry is pluggable (telemetry.Source): the same closed loop runs
// against the simulated datacenter (internal/substrate), a deterministic
// trace replay of recorded experiments, or a live Prometheus-exposition
// scraper — swap the source, keep the engine. Only the simulated fleet is
// also a substrate to act on: the controller holds it as one
// *substrate.Fleet (nil for the other sources), addresses its hosts by
// slot — the host table's order — and lends it to fault scripts under the
// round lock (Controller.WithSubstrate).
//
// ψ_stable comes through one seam, Predictor, which scores HostRows: the
// Eq. (2) fold of a host's deployment (dataset.Fold), plus the candidate
// VM where the row prices a placement, and the ambient it is priced at.
// Anchor misses and placement windows read one fold column
// (Controller.hostFold): each slot's fold over its residents, kept until
// the substrate's deployment generation for the slot moves. A
// source-driven host's row folds its observed load as one VM.
//
// The controller degrades gracefully: hosts whose telemetry has gone stale
// have their prediction uncertainty widened and are excluded from the
// hotspot map instead of poisoning it (and are evicted entirely once dark
// beyond the eviction horizon), and every round reports latency, staleness
// and drop metrics so the degradation is observable.
//
// One round (Controller.RunRound, round.go) is this fixed sequence of stages,
// each a method reading and writing one stack-allocated roundState. Per-host
// state lives in the engine's host table (hosttable.go), the one id index: a
// host id is resolved to a slot index once, when its reading is admitted,
// and every later stage indexes slots. Only engineRound makes or unmakes a
// session; migrate and drainPlacements mark the slots whose deployment they
// changed, for the next round to re-anchor.
//
//	advanceSource    Δ_update → source readings into the host table (newest per slot, up to the budget), source clock, source error (fatal for the substrate)
//	drainIngest      pushed readings → host table (same rule), membership, drained/discarded counts
//	resolveAnchors   slot readings → ψ_stable per slot, cache hits/misses, fan-out
//	engineRound      clock, slots (reading, anchor, re-anchor mark, session) → each slot's prediction and session, session stats
//	buildSnapshot    slot predictions and readings → next generation (hot set and its keys in table order, stale, columns), max prediction, round++
//	reconcileStream  generation hot set → streaming index drift, per-round stream deltas
//	migrate          generation, hot keys, slot predictions → applied moves (both ends marked), fresh proposals hottest first (substrate fleets)
//	publish          generation → published snapshot (columns and hot set immutable from here on; maps filled on first borrow, order on first Hotspots call)
//	drainPlacements  pending queue, published map → placed/queued/rejected tally (placed hosts marked)
//	report           roundState → RoundReport
package fleet

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"vmtherm/internal/core"
	"vmtherm/internal/dataset"
	"vmtherm/internal/engine"
	"vmtherm/internal/shard"
	"vmtherm/internal/vmm"
	"vmtherm/internal/workload"
)

// HostRow is one host as the ψ_stable predictor scores it: the Eq. (2)
// fold of a deployment — the host's residents, plus a placement candidate
// when the row prices one — and the ambient it is priced at. Every row of
// a controller is on its configured host shape and fan count.
type HostRow struct {
	Fold     dataset.Fold
	AmbientC float64
}

// Predictor is the ψ_stable model the controller anchors sessions and
// prices placements with. The production implementation is
// StableBatchPredictor (the Eq. (2) features through the SVM batch kernel);
// tests and demos inject SyntheticStablePredictor.
type Predictor struct {
	// TaskDemand is the CPU demand a placement candidate's task adds to a
	// fold. Residents and observed loads carry no profiles and fold at
	// their CPUFraction under every predictor.
	TaskDemand func(ts *workload.TaskSpec) (float64, error)
	// Score predicts ψ_stable for every row, on hosts of the given shape and
	// fan count, into out (len(out) == len(rows)). It must be safe for
	// concurrent calls: the controller shards cold-round anchor fan-outs
	// across a worker pool. The rows are controller scratch, valid only
	// until the call returns.
	Score func(shape vmm.HostConfig, fanCount int, rows []HostRow, out []float64) error
}

// stableScratch is the per-call working memory StableBatchPredictor keeps:
// one flat feature matrix, its row headers and the model scratch.
type stableScratch struct {
	feat []float64
	rows [][]float64
	ps   core.PredictScratch
}

// StableBatchPredictor adapts a trained stable model into the controller's
// Predictor. horizonS is the averaging horizon for a candidate's dynamic
// profiles (use the experiment duration, e.g. 1800). Rows are finished into
// a reused flat feature matrix and evaluated through the zero-alloc batch
// spine into the caller's slice, so concurrent shards share nothing but the
// (read-only) model and a warm call allocates nothing.
func StableBatchPredictor(model *core.StablePredictor, horizonS float64) Predictor {
	// A free list, not a sync.Pool: a caller that predicts once a round
	// keeps its megabyte of buffers across collections.
	var scratch shard.FreeList[stableScratch]
	nf := dataset.NumFeatures()
	return Predictor{
		TaskDemand: func(ts *workload.TaskSpec) (float64, error) { return dataset.TaskDemand(ts, horizonS) },
		Score: func(shape vmm.HostConfig, fanCount int, rows []HostRow, out []float64) error {
			s := scratch.Get()
			defer scratch.Put(s)
			if cap(s.feat) < len(rows)*nf {
				s.feat = make([]float64, len(rows)*nf)
			}
			s.feat = s.feat[:len(rows)*nf]
			if cap(s.rows) < len(rows) {
				s.rows = make([][]float64, len(rows))
			}
			s.rows = s.rows[:len(rows)]
			for i := range rows {
				row := s.feat[i*nf : (i+1)*nf : (i+1)*nf]
				if err := rows[i].Fold.Finish(shape, fanCount, rows[i].AmbientC, row); err != nil {
					return fmt.Errorf("fleet: encoding row %d: %w", i, err)
				}
				s.rows[i] = row
			}
			return model.PredictBatchInto(s.rows, out, &s.ps)
		},
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

// hotKey is one hotspot's sort key: its margin and the index of what it
// stands for — a slot in the round's keys, a row in an ordering's scratch.
type hotKey struct {
	margin float64
	i      int32
}

// sortHotKeys sorts keys into the published hotspot order — descending
// margin, ties broken by id(k.i), the key's host id — moving the 16-byte
// keys, not what they stand for. Margins are never NaN and host ids are
// unique, so the order is total and any sort yields it.
func sortHotKeys(keys []hotKey, id func(int32) string) {
	slices.SortFunc(keys, func(a, b hotKey) int {
		if a.margin != b.margin {
			if a.margin > b.margin {
				return -1
			}
			return 1
		}
		return strings.Compare(id(a.i), id(b.i))
	})
}

// appendHotspots appends row(k.i) for every key to dst in the published
// order (sortHotKeys).
func appendHotspots(dst []Hotspot, keys []hotKey, row func(int32) Hotspot) []Hotspot {
	sortHotKeys(keys, func(i int32) string { return row(i).HostID })
	for _, k := range keys {
		dst = append(dst, row(k.i))
	}
	return dst
}

// Snapshot is the control plane's published view after a round: what the
// fleet API serves and what schedulers consume.
//
// Snapshots are published as immutable, epoch-versioned generations:
// ViewSnapshot lends the generation's maps, slices and columns WITHOUT
// copying, for the duration of its callback, so every field — including map
// contents — is strictly read-only for consumers. Mutating a borrowed map is
// a data race.
//
// Per host, the round publishes columns (Len, At). The Predicted and Latest
// maps are a legacy index over them: no round writes them, and the first
// ViewSnapshot of a generation fills them, outside the round lock.
// ViewColumns lends the same generation with both maps nil and fills nothing.
type Snapshot struct {
	Round      int
	SimTimeS   float64
	GapS       float64
	ThresholdC float64
	// Predicted maps host → Δ_gap-ahead temperature (stale hosts excluded).
	Predicted map[string]float64
	// Latest maps host → newest telemetry reading behind the round.
	Latest map[string]Reading
	// StaleHosts lists hosts degraded for stale telemetry, sorted.
	StaleHosts []string

	// The columns, parallel to members.ids (the host table's order when the
	// round ran): pred is the Δ_gap-ahead temperature, NaN for a stale or
	// unpredicted host; latest is the newest reading where present is set.
	members *membership
	pred    []float64
	latest  []Reading
	present []bool

	// hot is the hot set in table order: row j is the j-th slot whose pred
	// is over ThresholdC. gen keeps the set's order once a reader asks.
	hot []Hotspot
	gen *snapGen
}

// HotSet is the hot set in host-table order: every host whose fresh
// Δ_gap-ahead prediction exceeds the threshold, once. For readers that
// use it as a set, it costs nothing to read.
func (s *Snapshot) HotSet() []Hotspot { return s.hot }

// Hotspots is the hot set sorted by descending margin, ties broken by host
// id. The first call on a generation sorts it, once, and later calls share
// the result; like the rest of a borrowed snapshot, it is read-only and
// valid only for the borrow.
func (s *Snapshot) Hotspots() []Hotspot {
	if s.gen == nil {
		return nil
	}
	return s.gen.hotspots()
}

// HostView is one host's row of a snapshot's columns.
type HostView struct {
	ID string
	// Latest is the newest telemetry reading behind the round, meaningful
	// only where HasLatest is set.
	Latest    Reading
	HasLatest bool
	// PredictedC is the Δ_gap-ahead temperature, NaN for a stale or
	// unpredicted host.
	PredictedC float64
}

// Len is the number of hosts in the snapshot's columns: the host table when
// the round ran, including hosts left without a reading.
func (s *Snapshot) Len() int {
	if s.members == nil {
		return 0
	}
	return len(s.members.ids)
}

// At is the k-th host in lexicographic id order, 0 ≤ k < Len().
func (s *Snapshot) At(k int) HostView {
	i := s.members.byID[k]
	return HostView{ID: s.members.ids[i], Latest: s.latest[i], HasLatest: s.present[i], PredictedC: s.pred[i]}
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
	// ControlLatency is the control-plane share (push drain → decisions),
	// excluding the source advance (simulated physics, replay, or scrape),
	// which includes writing the source's readings into the host table.
	ControlLatency time.Duration
	Hosts          int
	SessionsLive   int
	// TelemetryDrained counts readings consumed this round (source readings
	// admitted plus pushes drained); DroppedTotal and
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
	// tracked population every round.
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
	// StreamApplied and StreamDeferred count what the streaming ingest path
	// did since the previous round boundary (readings applied on arrival,
	// readings deferred to this round for want of a session);
	// StreamHotDrift counts hotspot-index entries this round's full
	// recompute had to correct at reconciliation.
	// All zero — and omitted from JSON, so round-driven traces are
	// byte-stable — on a controller nothing has pushed to.
	StreamApplied  int64 `json:",omitempty"`
	StreamDeferred int64 `json:",omitempty"`
	StreamHotDrift int   `json:",omitempty"`
}
