package fleet

import (
	"slices"
	"strings"
)

// The host table is the engine's (engine.Engine: the ids, the one id → slot
// index, and the slots with each host's reading, anchor, re-anchor mark,
// prediction and session), driven by the controller under c.mu. A host id
// is resolved to its slot once, when its reading is admitted (slotOf: the
// only string lookups on the round path); everything after indexes the
// slots, and c.seen (the round's write stamps) runs parallel to them.
// Membership changes — a host discovered, forgotten, trimmed at MaxHosts, or
// a restore — rebuild the table (keep), carrying surviving slots over with
// their sessions and dropping the rest with theirs, and drop c.members, the
// snapshot's copy of the ids; a round's newcomers end in a rebuild or are
// cut off again (dropForeignHosts). A deployment change marks its host's
// slot (reanchor) for the next round to re-anchor.

// resetTable makes the table hold exactly the hosts of order, in that
// order: a host the table holds keeps its slot, session included, a new one
// gets an empty slot, and every other slot leaves with its session. order's
// ids must be distinct.
func (c *Controller) resetTable(order []string) {
	keep := make([]int32, len(order))
	for j, id := range order {
		keep[j] = c.slotOf(id)
	}
	c.keep(keep)
}

// keep rebuilds the table to the listed slots, in that order (engine.Keep).
// The stamps only mean something inside a round, and the next round's
// generation matches none of them.
func (c *Controller) keep(keep []int32) {
	c.eng.Keep(keep)
	c.seen = make([]uint64, len(keep))
	c.members = nil
}

// slotOf resolves a host id to its slot: the one after the previous lookup's
// first (sources emit in table order), then the engine's index, else a new
// one at the tail. Newcomers sit unsorted at the tail until their round
// drains (refreshDiscoveredHosts sorts them in, dropForeignHosts cuts them
// off), so the tail is bounded by the source budget plus the buffer:
// 2 × capacity.
func (c *Controller) slotOf(id string) int32 {
	i := int32(c.cursor)
	if ids := c.eng.IDs(); c.cursor >= len(ids) || ids[i] != id {
		if i = c.eng.SlotOf(id); int(i) == len(c.seen) {
			c.seen = append(c.seen, 0)
		}
	}
	c.cursor = int(i) + 1
	return i
}

// reanchor marks slot i's deployment as changed: the next round re-anchors
// the host's session as if the host were seen first.
func (c *Controller) reanchor(i int) { c.eng.Slots()[i].Reanchor = true }

// admit writes r into its host's slot unless the slot holds a newer reading.
// A reading that never leaves the round — older than the slot's, or replaced
// later this round — counts as superseded: producers sample faster than the
// control loop consumes. Filling an empty slot marks the membership dirty.
func (c *Controller) admit(r *Reading) {
	i := c.slotOf(r.HostID)
	s := &c.eng.Slots()[i]
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
	c.eng.Truncate(n)
	c.seen = c.seen[:n]
}

// refreshDiscoveredHosts rebuilds the table from the observed population —
// the hosts that hold a reading, sorted by id — enforcing the MaxHosts
// bound: lexicographically excess hosts are forgotten (reading and session)
// and counted. Surviving slots move with their host, so readings, anchors
// and sessions stay paired with their id. On stable rounds — no empty slot
// filled, no host forgotten — the membership-dirty flag is clear and the
// O(n log n) rebuild is skipped entirely.
func (c *Controller) refreshDiscoveredHosts() (discarded int) {
	if !c.orderDirty {
		return 0
	}
	ids, slots := c.eng.IDs(), c.eng.Slots()
	keep := make([]int32, 0, len(ids))
	for i := range slots {
		if slots[i].Present {
			keep = append(keep, int32(i))
		}
	}
	slices.SortFunc(keep, func(a, b int32) int { return strings.Compare(ids[a], ids[b]) })
	if len(keep) > c.cfg.MaxHosts {
		discarded = len(keep) - c.cfg.MaxHosts
		keep = keep[:c.cfg.MaxHosts]
	}
	c.keep(keep)
	c.orderDirty = false
	return discarded
}
