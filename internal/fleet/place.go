// Batch placement and admission control: the scheduler-facing side of the
// control plane. The paper's end goal is placing VMs by *predicted* (not
// measured) temperature; this file turns that policy into a scheduler-grade
// API: PlaceBatch amortizes one coolest-first ranking, one candidate
// shortlist and batched post-placement ψ_stable prediction across a whole
// queue of requests, decrementing per-host thermal headroom as VMs land
// within the batch, and an explicit AdmissionPolicy (headroom budget, queue
// depth, per-round cap) yields typed Placed / Queued / Rejected decisions
// instead of error strings.
//
// A wave costs what changed, not what exists:
//
//   - a host's deployment reaches a Case through simHost.deployment, a view
//     memoised per host and invalidated where — and only where — a
//     deployment or a task's CPU fraction changes: fleetSim.place, migrate,
//     remove, and tickRack's SetTaskCPU sweep. fleetSim.hostCase copies
//     "view + candidate" into the wave's arena (Controller.waveSpecs, reset
//     at the top of each wave, once the previous wave's cases are
//     consumed); the anchor pass borrows the view through the same builder;
//   - the candidate VM's profiles are integrated once per predictor call,
//     not once per candidate host (dataset.ProfileMemo in
//     StableBatchPredictor: a window's cases share the candidate's Tasks);
//   - the plan's entries never move: they are ranked through a permutation
//     that placePlan.rerank repairs after a wave by removing the moved
//     entries and binary-inserting them. The only full sort is the plan's
//     once-per-round build.
//
// All three reproduce, bit for bit, the decisions of rebuilding each input
// from scratch; cluster.HostStateCase and a full sort are the oracles the
// tests compare against.
package fleet

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"

	"vmtherm/internal/vmm"
	"vmtherm/internal/workload"
)

// PlaceStatus classifies one placement decision.
type PlaceStatus uint8

const (
	// PlaceInvalid is the zero value; no real decision carries it.
	PlaceInvalid PlaceStatus = iota
	// Placed means the VM was admitted and started on HostID.
	Placed
	// Queued means admission blocked the VM this round: it was parked on
	// the pending queue and the next round's drain retries it.
	Queued
	// Rejected means the VM was refused; Code and Reason say why.
	Rejected
)

// String returns the wire form ("placed", "queued", "rejected").
func (s PlaceStatus) String() string {
	switch s {
	case Placed:
		return "placed"
	case Queued:
		return "queued"
	case Rejected:
		return "rejected"
	}
	return "invalid"
}

// RejectCode is the typed reason a placement was refused. Every Rejected
// decision carries exactly one code; the HTTP layer maps codes to statuses
// (422 infeasible, 429 queue-full, 409 for the rest).
type RejectCode uint8

const (
	// RejectNone is the zero value carried by non-rejected decisions.
	RejectNone RejectCode = iota
	// RejectInfeasible: the VM shape can never fit the fleet's host shape,
	// regardless of current load.
	RejectInfeasible
	// RejectNoCapacity: no host currently has the capacity to admit the VM.
	RejectNoCapacity
	// RejectNoHeadroom: hosts with capacity exist, but every placement would
	// leave less predicted thermal headroom than the admission budget — and
	// queueing is disabled, so the request cannot be parked.
	RejectNoHeadroom
	// RejectQueueFull: the request had to be parked (headroom or per-round
	// cap) but the pending queue is at its depth bound or disabled.
	RejectQueueFull
	// RejectNoSubstrate: source-driven controller — telemetry can be
	// observed and predicted, but there is no fleet to place onto.
	RejectNoSubstrate
	// RejectDuplicateID: a VM with this id is already placed fleet-wide.
	RejectDuplicateID
)

// String returns the wire form served by the fleet API.
func (c RejectCode) String() string {
	switch c {
	case RejectInfeasible:
		return "infeasible"
	case RejectNoCapacity:
		return "no-capacity"
	case RejectNoHeadroom:
		return "no-headroom"
	case RejectQueueFull:
		return "queue-full"
	case RejectNoSubstrate:
		return "no-substrate"
	case RejectDuplicateID:
		return "duplicate-id"
	}
	return ""
}

// ParseRejectCode maps a wire string back to its code (RejectNone for empty
// or unknown strings).
func ParseRejectCode(s string) RejectCode {
	switch s {
	case "infeasible":
		return RejectInfeasible
	case "no-capacity":
		return RejectNoCapacity
	case "no-headroom":
		return RejectNoHeadroom
	case "queue-full":
		return RejectQueueFull
	case "no-substrate":
		return RejectNoSubstrate
	case "duplicate-id":
		return RejectDuplicateID
	}
	return RejectNone
}

// AdmissionPolicy bounds what the placement plane will accept. The zero
// value (via Config.withDefaults) preserves the legacy behaviour: no
// headroom gate, a 65536-deep queue, no per-round cap.
type AdmissionPolicy struct {
	// HeadroomBudgetC requires every placement to leave at least this much
	// predicted headroom below ThresholdC after the VM lands. 0 disables
	// the gate: the coolest admitting host wins even if the placement is
	// predicted to run hot.
	HeadroomBudgetC float64
	// MaxQueueDepth bounds the pending queue shared by Submit and Queued
	// decisions. 0 takes the default (65536); -1 disables queueing
	// entirely, so admission-blocked requests are rejected, never parked.
	MaxQueueDepth int
	// MaxPlacementsPerRound caps how many VMs may be placed between two
	// rounds (PlaceBatch and the round drain combined); excess
	// requests queue for the next round. 0 means unbounded.
	MaxPlacementsPerRound int
}

// PlacementDecision records one VM request's typed outcome.
type PlacementDecision struct {
	VMID string
	// Status is Placed, Queued or Rejected.
	Status PlaceStatus
	// HostID and PredictedStableC are set when Status == Placed: where the
	// VM landed and its host's predicted post-placement ψ_stable.
	HostID           string
	PredictedStableC float64
	// Code and Reason are set when Status == Rejected.
	Code   RejectCode
	Reason string
}

// TallyDecisions counts decisions by status — the one tally behind
// RoundReport's placement counters, the vmtherm_place_*_total metrics and
// the batch response totals.
func TallyDecisions(decs []PlacementDecision) (placed, queued, rejected int) {
	for i := range decs {
		switch decs[i].Status {
		case Placed:
			placed++
		case Queued:
			queued++
		default:
			rejected++
		}
	}
	return placed, queued, rejected
}

// Per-call candidate budget: one placement call builds and predicts at most
// this many post-placement cases. A single VM spends the whole budget (the
// pre-batch shortlist bound); a batch splits it, floored at
// minPlacementWindow candidates per VM — that split is what makes a
// 1024-VM storm cost ~2 case builds + predictions per VM instead of 256.
const (
	maxPlacementCandidates = 256
	minPlacementWindow     = 2
)

// planEntry is one host of the round's placement plan.
type planEntry struct {
	id string
	sh *simHost
	// effTemp orders candidates coolest-first: the published Δ_gap-ahead
	// prediction, replaced by the predicted post-placement ψ_stable once a
	// placement lands on the host this round (+Inf = unpredicted).
	effTemp float64
	// hot marks predicted hotspots (avoided until no cool host admits);
	// moved marks an entry listed in placePlan.moved.
	hot, moved bool
	// claimed is the wave number that last reserved this host; one VM per
	// host per wave keeps every wave's predictions mutually consistent.
	claimed int
}

// compare is the plan's total order: coolest first, ties by id, +Inf —
// unpredicted hosts — last (never place blind when an observed host can
// admit).
func (a *planEntry) compare(b *planEntry) int {
	if a.effTemp != b.effTemp {
		if a.effTemp < b.effTemp {
			return -1
		}
		return 1
	}
	return strings.Compare(a.id, b.id)
}

// placePlan is the per-round placement working set shared by every
// PlaceBatch call between two rounds: the coolest-first host ranking with
// per-host effective temperatures and hotspot flags, kept current as
// placements land so sequential single-VM calls amortize exactly like one
// batch.
type placePlan struct {
	round int // controller round the plan was built for
	pop   int // population size at build (membership-change guard)
	// entries stays in build (host) order, so an entry's index is stable for
	// the plan's life; rank is the permutation of entry indices sorted by
	// planEntry.compare. moved lists the entries whose effTemp a wave changed
	// and that rerank has yet to put back in place.
	entries []planEntry
	rank    []int32
	moved   []int32
	// wave is the claim epoch (monotonic within the plan's round); placed
	// counts placements applied this round for the admission cap.
	wave   int
	placed int
}

// placePlanLocked returns the current round's plan, rebuilding it when the
// round advanced or the population changed. Callers hold c.mu and have
// checked c.sim != nil.
func (c *Controller) placePlanLocked() *placePlan {
	p := &c.plan
	if p.round == c.round && p.pop == len(c.order) {
		return p
	}
	var predicted map[string]float64
	hot := c.planHot
	clear(hot)
	if hot == nil {
		hot = make(map[string]bool)
		c.planHot = hot
	}
	// Writer-side borrow of the published snapshot: the caller holds c.mu,
	// which excludes generation recycling, and published generations are
	// immutable — no copy needed.
	if snap := c.publishedSnapshot(); snap != nil {
		predicted = snap.Predicted
		for _, h := range snap.Hotspots {
			hot[h.HostID] = true
		}
	}
	p.entries = p.entries[:0]
	for _, id := range c.order {
		t, ok := predicted[id]
		if !ok {
			t = math.Inf(1)
		}
		p.entries = append(p.entries, planEntry{
			id:      id,
			sh:      c.sim.hosts[id],
			effTemp: t,
			hot:     hot[id],
		})
	}
	p.rank = p.rank[:0]
	for i := range p.entries {
		p.rank = append(p.rank, int32(i))
	}
	slices.SortFunc(p.rank, func(a, b int32) int { return p.entries[a].compare(&p.entries[b]) })
	p.round, p.pop = c.round, len(c.order)
	p.moved, p.wave, p.placed = p.moved[:0], 0, 0
	return p
}

// rerank restores the rank invariant after a wave moved up to one entry per
// placed VM: every moved entry leaves the permutation first, then each is
// binary-inserted at its new place. Remove-all-then-insert is load-bearing —
// a search over a permutation that still holds another misplaced entry is a
// search over an unsorted slice. The order is total (ids are unique), so
// the result is the permutation a full sort would produce.
func (p *placePlan) rerank() {
	if len(p.moved) == 0 {
		return
	}
	kept := p.rank[:0]
	for _, ei := range p.rank {
		if !p.entries[ei].moved {
			kept = append(kept, ei)
		}
	}
	for _, ei := range p.moved {
		e := &p.entries[ei]
		e.moved = false
		at, _ := slices.BinarySearchFunc(kept, e, func(r int32, e *planEntry) int {
			return p.entries[r].compare(e)
		})
		kept = slices.Insert(kept, at, ei)
	}
	p.rank, p.moved = kept, p.moved[:0]
}

// ShapeError reports whether a VM shape could EVER fit the fleet's
// (homogeneous) host shape — the static half of admission, independent of
// current load: nil when it could, otherwise the RejectInfeasible reason.
func ShapeError(shape vmm.HostConfig, cfg vmm.VMConfig) error {
	if float64(cfg.VCPUs) <= float64(shape.Cores)*shape.CPUOvercommit && cfg.MemoryGB <= shape.MemoryGB {
		return nil
	}
	return fmt.Errorf("fleet: shape %dvCPU/%.0fGB can never fit host shape %dvCPU(×%.2g)/%.0fGB",
		cfg.VCPUs, cfg.MemoryGB, shape.Cores, shape.CPUOvercommit, shape.MemoryGB)
}

// PlaceBatch synchronously runs the thermal-aware placement policy for a
// whole queue of VM requests and applies the admitted decisions, returning
// one typed decision per spec in input order. It is the
// POST /v1/fleet/place/batch path and the round drain's engine.
//
// The batch shares one candidate budget (maxPlacementCandidates): requests
// are assigned in waves, each host serving at most one VM per wave, with
// one batched ψ_stable prediction per wave — so a storm of B requests costs
// O(budget) case builds + predictions total instead of B × budget, and
// every VM placed within the batch sees the headroom its predecessors
// consumed.
func (c *Controller) PlaceBatch(specs []workload.VMSpec) ([]PlacementDecision, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.placeBatchLocked(specs)
}

// waveVM is one staged request of the current wave: its spec index and its
// candidate window [lo, hi) into waveEntry/waveVals (waveEntry holds plan
// entry indices, which a rerank does not move).
type waveVM struct {
	spec   int
	lo, hi int
}

func (c *Controller) placeBatchLocked(specs []workload.VMSpec) ([]PlacementDecision, error) {
	decs := make([]PlacementDecision, len(specs))
	if c.sim == nil {
		for i := range specs {
			decs[i] = PlacementDecision{
				VMID:   specs[i].ID,
				Status: Rejected,
				Code:   RejectNoSubstrate,
				Reason: ErrNoSubstrate.Error(),
			}
		}
		return decs, nil
	}
	if len(specs) == 0 {
		return decs, nil
	}
	pol := c.cfg.Admission
	plan := c.placePlanLocked()
	window := maxPlacementCandidates / len(specs)
	if window < minPlacementWindow {
		window = minPlacementWindow
	}

	pending := c.pendIdx[:0]
	for i := range specs {
		pending = append(pending, i)
	}
	next := c.pendNext[:0]

	for len(pending) > 0 {
		plan.wave++
		plan.rerank()
		c.waveCases = c.waveCases[:0]
		c.waveSpecs = c.waveSpecs[:0] // the previous wave's cases are consumed
		c.waveEntry = c.waveEntry[:0]
		c.waveVMs = c.waveVMs[:0]
		next = next[:0]

		// Collection: walk the requests in input order, reserving each a
		// window of the coolest admitting unclaimed hosts and building their
		// post-placement cases. Requests that only found hosts claimed by an
		// earlier request this wave defer to the next wave, where they see
		// the applied placements.
		for _, si := range pending {
			spec := &specs[si]
			if err := ShapeError(c.cfg.HostShape, spec.Config); err != nil {
				decs[si] = PlacementDecision{
					VMID: spec.ID, Status: Rejected, Code: RejectInfeasible, Reason: err.Error(),
				}
				continue
			}
			if err := spec.Config.Validate(); err != nil {
				decs[si] = PlacementDecision{
					VMID: spec.ID, Status: Rejected, Code: RejectInfeasible, Reason: err.Error(),
				}
				continue
			}
			if cur, dup := c.sim.vmHost[spec.ID]; dup {
				decs[si] = PlacementDecision{
					VMID: spec.ID, Status: Rejected, Code: RejectDuplicateID,
					Reason: fmt.Sprintf("fleet: vm %q already placed on %q", spec.ID, cur),
				}
				continue
			}
			// Per-round cap: reserve a slot per staged request so the wave
			// never over-commits; excess requests park for the next round.
			if pol.MaxPlacementsPerRound > 0 && plan.placed+len(c.waveVMs) >= pol.MaxPlacementsPerRound {
				decs[si] = c.parkOrReject(spec, RejectQueueFull,
					fmt.Sprintf("fleet: per-round placement cap %d reached", pol.MaxPlacementsPerRound))
				continue
			}
			lo := len(c.waveEntry)
			sawClaimed := false
			for _, ei := range plan.rank {
				e := &plan.entries[ei]
				if e.claimed == plan.wave {
					// Only "some claimed host would have admitted" matters;
					// once known, later claimed hosts skip the capacity walk.
					sawClaimed = sawClaimed || canAdmitVM(e.sh.host, spec.Config)
					continue
				}
				if !canAdmitVM(e.sh.host, spec.Config) {
					continue
				}
				e.claimed = plan.wave
				// Priced from the per-tick rack inlet cache. In-round
				// placements do shift rack recirculation slightly until the
				// next tick; that drift is below sensor noise and
				// deliberately ignored.
				inlet, err := c.sim.inletAt(e.sh)
				if err != nil {
					return nil, err
				}
				cse, err := c.sim.hostCase(e.sh, inlet, spec, &c.waveSpecs)
				if err != nil {
					return nil, err
				}
				c.waveCases = append(c.waveCases, cse)
				c.waveEntry = append(c.waveEntry, ei)
				if len(c.waveEntry)-lo == window {
					break
				}
			}
			if len(c.waveEntry) == lo {
				if sawClaimed {
					next = append(next, si) // contended: retry against next wave's state
					continue
				}
				decs[si] = PlacementDecision{
					VMID: spec.ID, Status: Rejected, Code: RejectNoCapacity,
					Reason: ErrNoCapacity.Error(),
				}
				continue
			}
			c.waveVMs = append(c.waveVMs, waveVM{spec: si, lo: lo, hi: len(c.waveEntry)})
		}

		// One batched prediction over every window of the wave.
		if len(c.waveCases) > 0 {
			if cap(c.waveVals) < len(c.waveCases) {
				c.waveVals = make([]float64, len(c.waveCases))
			}
			c.waveVals = c.waveVals[:len(c.waveCases)]
			if err := c.predictMissBatch(c.waveCases, c.waveVals); err != nil {
				return nil, fmt.Errorf("fleet: placement predict: %w", err)
			}
		}

		// Assignment: windows are disjoint (claimed at collection), so each
		// VM's argmin stays valid as its predecessors land.
		gated := pol.HeadroomBudgetC > 0
		for _, wv := range c.waveVMs {
			spec := &specs[wv.spec]
			best, bestVal := -1, math.Inf(1)
			for j := wv.lo; j < wv.hi; j++ {
				e := &plan.entries[c.waveEntry[j]]
				if e.hot {
					continue // first pass avoids predicted hotspots entirely
				}
				if gated && c.cfg.ThresholdC-c.waveVals[j] < pol.HeadroomBudgetC {
					continue
				}
				if c.waveVals[j] < bestVal {
					best, bestVal = j, c.waveVals[j]
				}
			}
			if best < 0 && !gated {
				// Legacy fallback: with no headroom budget, a hot host beats
				// rejecting a VM the fleet has capacity for.
				for j := wv.lo; j < wv.hi; j++ {
					if c.waveVals[j] < bestVal {
						best, bestVal = j, c.waveVals[j]
					}
				}
			}
			if best < 0 {
				if gated {
					decs[wv.spec] = c.parkOrReject(spec, RejectNoHeadroom,
						fmt.Sprintf("fleet: no candidate leaves %.2g°C predicted headroom below %.4g°C",
							pol.HeadroomBudgetC, c.cfg.ThresholdC))
				} else {
					decs[wv.spec] = PlacementDecision{
						VMID: spec.ID, Status: Rejected, Code: RejectNoCapacity,
						Reason: "fleet: no usable prediction for any candidate",
					}
				}
				continue
			}
			e := &plan.entries[c.waveEntry[best]]
			if err := c.sim.place(e.id, *spec); err != nil {
				code := RejectInfeasible
				if _, dup := c.sim.vmHost[spec.ID]; dup {
					code = RejectDuplicateID // in-batch duplicate landed first
				}
				decs[wv.spec] = PlacementDecision{
					VMID: spec.ID, Status: Rejected, Code: code, Reason: err.Error(),
				}
				continue
			}
			// The deployment changed: the host's session re-anchors next
			// round, and the plan carries the post-placement temperature
			// forward so later VMs (and later calls this round) price the
			// consumed headroom.
			c.eng.Delete(e.id)
			e.effTemp = bestVal
			e.hot = bestVal > c.cfg.ThresholdC
			e.moved = true // once per wave: the host was claimed for this VM alone
			plan.moved = append(plan.moved, c.waveEntry[best])
			plan.placed++
			decs[wv.spec] = PlacementDecision{
				VMID: spec.ID, Status: Placed, HostID: e.id, PredictedStableC: bestVal,
			}
		}
		pending, next = next, pending
	}
	c.pendIdx, c.pendNext = pending[:0], next[:0]
	return decs, nil
}

// parkOrReject parks an admission-blocked request on the pending queue
// (Queued) or rejects it — with RejectQueueFull at the depth bound, or the
// caller's blocking code when queueing is disabled.
func (c *Controller) parkOrReject(spec *workload.VMSpec, code RejectCode, reason string) PlacementDecision {
	if c.cfg.Admission.MaxQueueDepth >= 0 {
		if c.Submit(*spec) {
			return PlacementDecision{VMID: spec.ID, Status: Queued}
		}
		return PlacementDecision{
			VMID: spec.ID, Status: Rejected, Code: RejectQueueFull,
			Reason: fmt.Sprintf("fleet: pending queue at depth bound %d", c.cfg.Admission.MaxQueueDepth),
		}
	}
	return PlacementDecision{VMID: spec.ID, Status: Rejected, Code: code, Reason: reason}
}

// canAdmitVM checks capacity without mutating the host.
func canAdmitVM(h *vmm.Host, cfg vmm.VMConfig) bool {
	hc := h.Config()
	if h.PlacedVCPUs()+float64(cfg.VCPUs) > float64(hc.Cores)*hc.CPUOvercommit {
		return false
	}
	return h.PlacedMemGB()+cfg.MemoryGB <= hc.MemoryGB
}

// ErrNoCapacity is the RejectNoCapacity reason when no host can admit a VM.
var ErrNoCapacity = errors.New("fleet: no host with capacity")

// ErrNoSubstrate is returned for placement/migration operations on a
// source-driven controller: real telemetry can be observed and predicted,
// but there is no simulated fleet to mutate.
var ErrNoSubstrate = errors.New("fleet: source-driven controller has no placement substrate")
