package fleet

import (
	"slices"
	"sort"
	"testing"
)

// fullSortRank is the ranking oracle: the permutation a full sort of the
// plan's entries by (effTemp, id) produces, written out independently of
// planEntry.compare.
func fullSortRank(entries []planEntry) []int32 {
	want := make([]int32, len(entries))
	for i := range want {
		want[i] = int32(i)
	}
	sort.Slice(want, func(i, j int) bool {
		a, b := &entries[want[i]], &entries[want[j]]
		if a.effTemp != b.effTemp {
			return a.effTemp < b.effTemp
		}
		return a.id < b.id
	})
	return want
}

// TestPlanRankMatchesFullSort is the incremental-ranking property: over the
// seeded streams of all four admission variants, whenever no moved entry is
// waiting for rerank — at every wave's prediction, which follows the wave's
// rerank, and after every PlaceBatch once its last wave is reranked — the
// plan's permutation is exactly what a full sort of its entries gives. Every
// stream must include waves that directly follow another wave of the same
// round (a contended batch or drain spilling over), where the rerank runs
// between two collections rather than at the top of a call.
func TestPlanRankMatchesFullSort(t *testing.T) {
	for _, v := range streamVariants {
		t.Run(v.name, func(t *testing.T) {
			var waveChecks, spills int
			lastRound, lastWave := -1, -1 // the previous check, if it was a wave's
			runPlaceStream(t, v, func(c *Controller, afterBatch bool) {
				p := &c.plan
				if afterBatch {
					lastRound, lastWave = -1, -1
					p.rerank()
				} else if len(p.moved) > 0 || p.round != c.round {
					return // an anchor pass between calls: the last wave's rerank is still due
				} else {
					waveChecks++
					if p.round == lastRound && p.wave == lastWave+1 {
						spills++
					}
					lastRound, lastWave = p.round, p.wave
				}
				if len(p.moved) != 0 {
					t.Fatalf("round %d wave %d: %d entries still marked moved after rerank", p.round, p.wave, len(p.moved))
				}
				if want := fullSortRank(p.entries); !slices.Equal(p.rank, want) {
					t.Fatalf("round %d wave %d (after batch: %v): rank %v, full sort %v", p.round, p.wave, afterBatch, p.rank, want)
				}
				for i := range p.entries {
					if p.entries[i].id != c.order[i] || p.entries[i].moved {
						t.Fatalf("entry %d = %q (moved %v), want %q in build order", i, p.entries[i].id, p.entries[i].moved, c.order[i])
					}
				}
			})
			if waveChecks < streamBatches || spills == 0 {
				t.Fatalf("stream checked %d waves, %d of them spill-overs: not the coverage the property needs", waveChecks, spills)
			}
			t.Logf("%d waves checked, %d spill-overs", waveChecks, spills)
		})
	}
}
