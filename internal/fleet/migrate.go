package fleet

import (
	"math"
)

// reconcile applies pending migration proposals that are still valid — the
// source must still be predicted hot — bounded by MaxMigrationsPerRound.
func (c *Controller) reconcile(predicted map[string]float64) (applied int) {
	for _, p := range c.pendingP {
		if applied >= c.cfg.MaxMigrationsPerRound {
			break
		}
		if predicted[p.FromHostID] <= c.cfg.ThresholdC {
			continue // cooled off on its own; desired state already met
		}
		if err := c.sim.migrate(p.VMID, p.FromHostID, p.ToHostID); err != nil {
			continue // VM gone or target filled up: drop the proposal
		}
		// Force a re-anchor next round: both hosts' deployments changed.
		c.eng.Delete(p.FromHostID)
		c.eng.Delete(p.ToHostID)
		applied++
	}
	return applied
}

// propose derives migration proposals from the hotspot map: for each hotspot
// (hottest first), move its largest VM to the coolest non-hot host that can
// admit it. Proposals are bounded — 4× what reconcile can apply per round,
// or 64 hottest-first in observe-only mode (MaxMigrationsPerRound = 0) —
// because each proposal costs an O(hosts) target scan and the map is
// recomputed fresh every round anyway: at datacenter scale an unbounded
// pass over thousands of hotspots would be quadratic for proposals that
// could never be acted on.
func (c *Controller) propose(hotspots []Hotspot, predicted map[string]float64) []MigrationProposal {
	maxProposals := 4 * c.cfg.MaxMigrationsPerRound
	if c.cfg.MaxMigrationsPerRound == 0 {
		maxProposals = 64
	} else if maxProposals < 8 {
		maxProposals = 8
	}
	var out []MigrationProposal
	hot := make(map[string]bool, len(hotspots))
	for _, h := range hotspots {
		hot[h.HostID] = true
	}
	for _, h := range hotspots {
		if len(out) >= maxProposals {
			break
		}
		vm, err := c.sim.largestVM(h.HostID)
		if err != nil {
			continue // nothing running to move (e.g. hot purely from environment)
		}
		target := ""
		best := math.Inf(1)
		for _, id := range c.order {
			if id == h.HostID || hot[id] {
				continue
			}
			sh := c.sim.hosts[id]
			if !canAdmitVM(sh.host, vm.Config()) {
				continue
			}
			t, ok := predicted[id]
			if !ok {
				continue // stale or unobserved: never migrate blind
			}
			if t < best {
				best, target = t, id
			}
		}
		if target == "" {
			continue
		}
		out = append(out, MigrationProposal{
			VMID:       vm.ID(),
			FromHostID: h.HostID,
			ToHostID:   target,
			MarginC:    h.MarginC,
		})
	}
	return out
}
