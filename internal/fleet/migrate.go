package fleet

import (
	"math"

	"vmtherm/internal/engine"
	"vmtherm/internal/vmm"
)

// reconcile applies pending migration proposals that are still valid — the
// source must still be predicted hot — bounded by MaxMigrationsPerRound.
// predicted is this round's column, indexed by host table slot.
func (c *Controller) reconcile(predicted []float64) (applied int) {
	for _, p := range c.pendingP {
		if applied >= c.cfg.MaxMigrationsPerRound {
			break
		}
		from, ok := c.pos[p.FromHostID]
		if !ok || !(predicted[from] > c.cfg.ThresholdC) {
			continue // cooled off on its own (or gone, stale, unpredicted); desired state already met
		}
		if err := c.sub.Migrate(p.VMID, int(from), int(c.pos[p.ToHostID])); err != nil {
			continue // VM gone or target filled up: drop the proposal
		}
		// Force a re-anchor next round: both hosts' deployments changed.
		c.eng.Delete(p.FromHostID)
		c.eng.Delete(p.ToHostID)
		applied++
	}
	return applied
}

// proposeTarget is one host a hotspot's VM may move to this round.
type proposeTarget struct {
	tempC float64
	host  *vmm.Host
	slot  int32
}

// propose derives migration proposals from the round's hot keys and the
// slots' predictions, hottest hotspot first (the published order): move
// each hotspot's largest VM to the coolest host that is neither hot nor
// stale nor unobserved — never migrate blind — and can admit it, the first
// in host order on a tie. Those targets are the fresh predictions at or
// below the threshold, listed once per round with their hosts resolved, so
// each proposal is one scan of a flat slice; keys and targets carry slot
// indices, so no id is looked up.
// Proposals are bounded — 4× what reconcile can apply per round, or 64
// hottest-first in observe-only mode (MaxMigrationsPerRound = 0) — because
// each costs an O(hosts) target scan and the list is recomputed fresh every
// round anyway: at datacenter scale an unbounded pass over thousands of
// hotspots would be quadratic for proposals that could never be acted on.
// The round's keys come in table order; propose sorts them in place
// (sortHotKeys) before its walk, which is no fixed top-k: a hotspot with
// nothing to move or nowhere to move it is skipped without counting.
func (c *Controller) propose(hot []hotKey, slots []engine.Slot) []MigrationProposal {
	maxProposals := 4 * c.cfg.MaxMigrationsPerRound
	if c.cfg.MaxMigrationsPerRound == 0 {
		maxProposals = 64
	} else if maxProposals < 8 {
		maxProposals = 8
	}
	if len(hot) == 0 {
		return nil
	}
	targets := c.propTgts[:0]
	for i := range slots {
		if s := &slots[i]; s.Predicted && !s.Pred.Stale && s.Pred.TempC <= c.cfg.ThresholdC {
			targets = append(targets, proposeTarget{tempC: s.Pred.TempC, host: c.sub.Host(i), slot: int32(i)})
		}
	}
	c.propTgts = targets
	sortHotKeys(hot, func(i int32) string { return c.order[i] })
	var out []MigrationProposal
	for _, h := range hot {
		if len(out) >= maxProposals {
			break
		}
		vm, err := c.sub.LargestVM(int(h.i))
		if err != nil {
			continue // nothing running to move (e.g. hot purely from environment)
		}
		shape := vm.Config()
		var target *proposeTarget
		best := math.Inf(1)
		for i := range targets {
			if tg := &targets[i]; tg.tempC < best && tg.host.CanAdmit(shape) {
				best, target = tg.tempC, tg
			}
		}
		if target == nil {
			continue
		}
		out = append(out, MigrationProposal{
			VMID:       vm.ID(),
			FromHostID: c.order[h.i],
			ToHostID:   c.order[target.slot],
			MarginC:    h.margin,
		})
	}
	return out
}
