package fleet

import (
	"slices"
	"strings"

	"vmtherm/internal/engine"
)

// The host table is the controller's one place for per-host round state. A
// host id is resolved to a slot index once, when its reading is admitted
// (slotOf: the only string lookups on the round path); everything after
// indexes slices parallel to c.order: c.slots (newest reading, this round's
// ψ_stable anchor, the engine's cached session handle, and the prediction
// the engine round writes back) and c.seen (the round's write stamp). Membership changes — a host discovered, forgotten,
// trimmed at MaxHosts, or a restore — rebuild the table and carry surviving
// slots over; rounds with stable membership never touch pos beyond
// slotOf's reads. Both rebuilds (resetTable, refreshDiscoveredHosts) drop
// c.members, the snapshot's copy of the ids, so the next round's snapshot
// takes a new one; a round's newcomers always end in a rebuild or are cut
// off again (dropForeignHosts). All of it is guarded by c.mu.

// resetTable makes the table hold exactly the hosts of order, in that
// order, each without a reading. order's ids must be distinct.
func (c *Controller) resetTable(order []string) {
	c.order = append(c.order[:0], order...)
	c.members = nil
	c.slots = make([]engine.Slot, len(order))
	c.seen = make([]uint64, len(order))
	clear(c.pos)
	for i, id := range c.order {
		c.pos[id] = int32(i)
	}
}

// addHost appends a slot for a host the table does not hold yet and returns
// its index. Newcomers sit unsorted at the tail until their round drains
// (refreshDiscoveredHosts sorts them in, dropForeignHosts cuts them off), so
// the tail is bounded by the source budget plus the buffer: 2 × capacity.
func (c *Controller) addHost(id string) int32 {
	i := int32(len(c.order))
	c.pos[id] = i
	c.order = append(c.order, id)
	c.slots = append(c.slots, engine.Slot{})
	c.seen = append(c.seen, 0)
	return i
}

// slotOf resolves a host id to its slot: the one after the previous lookup's
// first (sources emit in table order), then pos, else a new one at the tail.
func (c *Controller) slotOf(id string) int32 {
	var i int32
	if n := c.cursor; n < len(c.order) && c.order[n] == id {
		i = int32(n)
	} else if j, tracked := c.pos[id]; tracked {
		i = j
	} else {
		i = c.addHost(id)
	}
	c.cursor = int(i) + 1
	return i
}

// admit writes r into its host's slot unless the slot holds a newer reading.
// A reading that never leaves the round — older than the slot's, or replaced
// later this round — counts as superseded: producers sample faster than the
// control loop consumes. Filling an empty slot marks the membership dirty.
func (c *Controller) admit(r *Reading) {
	i := c.slotOf(r.HostID)
	s := &c.slots[i]
	if s.Present && r.AtS < s.Reading.AtS {
		c.superseded++
		return
	}
	if !s.Present {
		c.orderDirty = true
	}
	if c.seen[i] == c.drainGen {
		c.superseded++
	}
	c.seen[i] = c.drainGen
	s.Reading, s.Present = *r, true
}

// drain admits every pushed reading, in arrival order, and returns how many
// it consumed. It runs after the source's advance, so a push and a source
// reading with equal timestamps resolve to the push. A push stamped after now
// is stored at now, as the engine round clamps it, so a clock-skewed
// producer cannot outrank the genuine readings that follow (a source's
// readings are stamped at or before its clock; see telemetry.Source).
func (c *Controller) drain(now float64) int {
	batch := c.ingest.take()
	for k := range batch {
		r := &batch[k]
		r.AtS = min(r.AtS, now)
		c.admit(r)
	}
	c.ingest.superseded.Add(c.superseded)
	c.superseded = 0
	return len(batch)
}

// dropForeignHosts cuts the table back to the simulated fleet's own n
// hosts: whatever the round appended past them named hosts the fleet does
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
	// The stamps only mean something inside a round, and the next round's
	// generation matches none of them.
	c.order, c.slots, c.seen = order, slots, c.seen[:len(keep)]
	c.members = nil
	c.orderDirty = false
	return discarded
}
