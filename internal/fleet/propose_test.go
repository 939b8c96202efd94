package fleet

import (
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"slices"
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
// drawn from a handful of values so ties between candidate targets and
// between hotspot margins are the rule, fleets where every observed host is
// hot, and more hotspots than maxProposals — propose, handed the slot-indexed
// hot keys in table order as the round collects them, proposes exactly what
// the map-based oracle walking the published hotspot order does, in the same
// order. The last 150 trials are sparse: mostly hot, a third of the hosts
// running nothing and a third full, so the walk skips hotspots ahead of the
// bound without counting them.
func TestProposeMatchesMapOracle(t *testing.T) {
	rng := rand.New(rand.NewPCG(2017, 30))
	var proposals, ties, allHot, capped, tiedMargins, pastBound int
	for trial := 0; trial < 450; trial++ {
		sparse := trial >= 300
		cfg := testConfig()
		cfg.Racks, cfg.HostsPerRack = 1+rng.IntN(3), 2+rng.IntN(10)
		cfg.MaxMigrationsPerRound = []int{0, 1, 3}[rng.IntN(3)]
		if sparse {
			cfg.Racks, cfg.HostsPerRack = 2+rng.IntN(2), 6+rng.IntN(8)
			cfg.MaxMigrationsPerRound = 1 + rng.IntN(2) // maxProposals 8
		}
		c, err := New(cfg, syntheticStable)
		if err != nil {
			t.Fatal(err)
		}
		// Random VM shapes until each host is empty, partly filled or full:
		// a full host is a cool target that cannot admit the moving VM.
		for hi, id := range c.order {
			fill := rng.IntN(12)
			if sparse {
				fill = []int{0, 1, 64}[rng.IntN(3)]
			}
			for v := 0; v < fill; v++ {
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
				if sparse && rng.IntN(3) != 0 {
					temp = cfg.ThresholdC + 1 + float64(rng.IntN(3))
				}
				slots[i].Pred = Prediction{HostID: id, TempC: temp, Stale: rng.IntN(10) == 0}
				slots[i].Predicted = true
			}
			// The snapshot's view of the slots, as buildSnapshot derives it:
			// the hot keys in table order, and the hotspots they give in
			// published order.
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
			hotspots := appendHotspots(nil, slices.Clone(keys), func(i int32) Hotspot { return hotspotOf(&slots[i].Pred, cfg.ThresholdC) })

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
				// The walk skipped hotspots ahead of the bound without
				// counting them when the last proposal's source sits past it.
				for k, h := range hotspots {
					if h.HostID == want[len(want)-1].FromHostID && k >= maxProposals {
						pastBound++
					}
				}
			}
			for k := 1; k < len(hotspots); k++ {
				if hotspots[k].MarginC == hotspots[k-1].MarginC {
					tiedMargins++
				}
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
	t.Logf("%d proposals, %d with a tied target temperature, %d all-hot fleets, %d rounds at maxProposals, %d tied hotspot margins, %d rounds that walked past the bound",
		proposals, ties, allHot, capped, tiedMargins, pastBound)
	if proposals == 0 || ties == 0 || allHot == 0 || capped == 0 || tiedMargins == 0 || pastBound == 0 {
		t.Fatal("the trials missed a case the oracle comparison must cover")
	}
}
