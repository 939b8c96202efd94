package fleet

import (
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"testing"

	"vmtherm/internal/engine"
)

// mapPropose is propose as it was when every candidate cost three string-map
// lookups: a per-round hot set, the host map and the snapshot's Predicted map,
// with the capacity check before the temperature compare. It is the oracle
// the target-list scan must reproduce exactly.
func mapPropose(c *Controller, hotspots []Hotspot, predicted map[string]float64) []MigrationProposal {
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
		vm, err := c.sub.LargestVM(int(c.pos[h.HostID]))
		if err != nil {
			continue // nothing running to move (e.g. hot purely from environment)
		}
		target := ""
		best := math.Inf(1)
		for i, id := range c.order {
			if id == h.HostID || hot[id] {
				continue
			}
			if !c.sub.Host(i).CanAdmit(vm.Config()) {
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

// TestProposeMatchesMapOracle: over seeded random simulated fleets — hosts
// filled to capacity, empty hosts, stale and unobserved hosts, temperatures
// drawn from a handful of values so ties between candidate targets are the
// rule, fleets where every observed host is hot, and more hotspots than
// maxProposals — propose's scan over slot-indexed hot keys and targets
// proposes exactly what the map-based oracle does, in the same order.
func TestProposeMatchesMapOracle(t *testing.T) {
	rng := rand.New(rand.NewPCG(2017, 30))
	var proposals, ties, allHot, capped int
	for trial := 0; trial < 300; trial++ {
		cfg := testConfig()
		cfg.Racks, cfg.HostsPerRack = 1+rng.IntN(3), 2+rng.IntN(10)
		cfg.MaxMigrationsPerRound = []int{0, 1, 3}[rng.IntN(3)]
		c, err := New(cfg, syntheticStable)
		if err != nil {
			t.Fatal(err)
		}
		// Random VM shapes until each host is empty, partly filled or full:
		// a full host is a cool target that cannot admit the moving VM.
		for hi, id := range c.order {
			for v, fill := 0, rng.IntN(12); v < fill; v++ {
				spec := HeavyVMSpec(fmt.Sprintf("t%d-h%d-v%d", trial, hi, v), 1+rng.IntN(8), float64(1+rng.IntN(24)))
				_ = c.PlaceAt(id, spec) // a host that is full refuses: that is the point
			}
		}
		maxProposals := max(4*cfg.MaxMigrationsPerRound, 8)
		if cfg.MaxMigrationsPerRound == 0 {
			maxProposals = 64
		}
		for round := 0; round < 4; round++ {
			hotAll := rng.IntN(6) == 0
			slots := make([]engine.Slot, len(c.order))
			for i, id := range c.order {
				if rng.IntN(8) == 0 {
					continue // unobserved this round
				}
				temp := cfg.ThresholdC + float64(rng.IntN(7)-4) // ties, and exactly at the threshold
				if rng.IntN(5) == 0 {
					temp = cfg.ThresholdC - 30*rng.Float64()
				}
				if hotAll {
					temp = cfg.ThresholdC + 0.5 + float64(rng.IntN(3))
				}
				slots[i].Pred = Prediction{HostID: id, TempC: temp, Stale: rng.IntN(10) == 0}
				slots[i].Predicted = true
			}
			// The snapshot's view of the slots, as buildSnapshot derives it:
			// the hot keys in published order, and the hotspots they give.
			var keys []hotKey
			predicted := make(map[string]float64)
			for i := range slots {
				if p := &slots[i].Pred; slots[i].Predicted && !p.Stale {
					predicted[p.HostID] = p.TempC
					if p.TempC > cfg.ThresholdC {
						keys = append(keys, hotKey{p.TempC - cfg.ThresholdC, int32(i)})
					}
				}
			}
			hotspots := appendHotspots(nil, keys, func(i int32) Hotspot { return hotspotOf(&slots[i].Pred, cfg.ThresholdC) })

			want := mapPropose(c, hotspots, predicted)
			got := c.propose(keys, slots)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d round %d (%d hosts, max %d): propose\n got %+v\nwant %+v",
					trial, round, len(c.order), maxProposals, got, want)
			}
			proposals += len(want)
			if hotAll && len(hotspots) > 0 {
				allHot++
			}
			if len(want) == maxProposals {
				capped++
			}
			for _, p := range want {
				for id, temp := range predicted {
					if id != p.ToHostID && temp == predicted[p.ToHostID] {
						ties++
						break
					}
				}
			}
		}
	}
	t.Logf("%d proposals, %d with a tied target temperature, %d all-hot fleets, %d rounds at maxProposals",
		proposals, ties, allHot, capped)
	if proposals == 0 || ties == 0 || allHot == 0 || capped == 0 {
		t.Fatal("the trials missed a case the oracle comparison must cover")
	}
}
