package fleet

import (
	"slices"
	"strings"

	"vmtherm/internal/engine"
)

// The host table is the controller's one place for per-host round state. A
// host id is resolved to a slot index once, when its reading is drained
// (the slot after the previous reading's, else c.pos — the only string
// lookups on the round path); everything after indexes slices parallel to
// c.order: c.slots (newest reading, this round's ψ_stable anchor, the
// engine's cached session handle) and c.seen (the drain's stamp).
// Membership changes — a host discovered, forgotten, trimmed at MaxHosts,
// or a restore — rebuild the table and carry surviving slots over; rounds
// with stable membership never touch pos beyond the drain's reads. All of it
// is guarded by c.mu.

// resetTable makes the table hold exactly the hosts of order, in that
// order, each without a reading. order's ids must be distinct.
func (c *Controller) resetTable(order []string) {
	c.order = append(c.order[:0], order...)
	c.slots = make([]engine.Slot, len(order))
	c.seen = make([]uint64, len(order))
	clear(c.pos)
	for i, id := range c.order {
		c.pos[id] = int32(i)
	}
}

// addHost appends a slot for a host the table does not hold yet and returns
// its index. Newcomers sit unsorted at the tail until the drain that met
// them ends (refreshDiscoveredHosts sorts them in, dropForeignHosts cuts
// them off), so the tail is bounded by the ingest buffer.
func (c *Controller) addHost(id string) int32 {
	i := int32(len(c.order))
	c.pos[id] = i
	c.order = append(c.order, id)
	c.slots = append(c.slots, engine.Slot{})
	c.seen = append(c.seen, 0)
	return i
}

// drain takes every buffered reading, in arrival order, into its host's
// slot, keeps only the newest reading per host, returns how many readings it
// consumed, and keeps the taken slice as the pipeline's next buffer. Sources
// emit in table order, so a reading first tries the slot after its
// predecessor's and looks up pos only on a miss. A reading stamped after now
// is stored at now, as the engine round clamps it, so a clock-skewed
// producer cannot outrank the genuine readings that follow. A reading that
// fills an empty slot (a host never seen, or forgotten) marks the membership
// dirty. Consumed readings that never become a host's newest are counted as
// superseded: the ingest-pressure signal that says producers are sampling
// faster than the control loop consumes.
func (c *Controller) drain(now float64) int {
	c.drainGen++
	batch := c.ingest.take(c.drained)
	var superseded int64
	next := 0
	for k := range batch {
		r := &batch[k]
		var i int32
		if next < len(c.order) && c.order[next] == r.HostID {
			i = int32(next)
		} else if j, tracked := c.pos[r.HostID]; tracked {
			i = j
		} else {
			i = c.addHost(r.HostID)
		}
		next = int(i) + 1
		r.AtS = min(r.AtS, now)
		s := &c.slots[i]
		if s.Present && r.AtS < s.Reading.AtS {
			superseded++
			continue
		}
		if !s.Present {
			c.orderDirty = true
		}
		if c.seen[i] == c.drainGen {
			// The reading written earlier this drain never left the round.
			superseded++
		}
		c.seen[i] = c.drainGen
		s.Reading, s.Present = *r, true
	}
	c.ingest.superseded.Add(superseded)
	c.drained = batch
	return len(batch)
}

// dropForeignHosts cuts the table back to the simulated fleet's own n
// hosts: whatever the drain appended past them named hosts the fleet does
// not own.
func (c *Controller) dropForeignHosts(n int) {
	for _, id := range c.order[n:] {
		delete(c.pos, id)
	}
	c.order, c.slots, c.seen = c.order[:n], c.slots[:n], c.seen[:n]
}

// refreshDiscoveredHosts rebuilds the table from the observed population —
// the hosts that hold a reading, sorted by id — enforcing the MaxHosts
// bound: lexicographically excess hosts are forgotten (reading and session)
// and counted. Surviving slots move with their host, so readings, anchors
// and session handles stay paired with their id. On stable rounds — no
// empty slot filled, no host forgotten — the membership-dirty flag is clear
// and the O(n log n) rebuild is skipped entirely.
func (c *Controller) refreshDiscoveredHosts() (discarded int) {
	if !c.orderDirty {
		return 0
	}
	keep := make([]int32, 0, len(c.order))
	for i := range c.slots {
		if c.slots[i].Present {
			keep = append(keep, int32(i))
		}
	}
	slices.SortFunc(keep, func(a, b int32) int { return strings.Compare(c.order[a], c.order[b]) })
	if len(keep) > c.cfg.MaxHosts {
		for _, i := range keep[c.cfg.MaxHosts:] {
			c.eng.Delete(c.order[i])
			discarded++
		}
		keep = keep[:c.cfg.MaxHosts]
	}
	order := make([]string, len(keep))
	slots := make([]engine.Slot, len(keep))
	clear(c.pos)
	for j, i := range keep {
		order[j], slots[j] = c.order[i], c.slots[i]
		c.pos[order[j]] = int32(j)
	}
	// The stamps only mean something inside a drain, and the next drain's
	// generation matches none of them.
	c.order, c.slots, c.seen = order, slots, c.seen[:len(keep)]
	c.orderDirty = false
	return discarded
}
