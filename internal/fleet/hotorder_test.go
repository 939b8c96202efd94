package fleet

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// refSortHotspots is the published order as a comparator sort over the
// rows themselves: descending margin, ties broken by host id. It is the
// oracle appendHotspots is checked against.
func refSortHotspots(out []Hotspot) {
	slices.SortFunc(out, func(a, b Hotspot) int {
		if a.MarginC != b.MarginC {
			if a.MarginC > b.MarginC {
				return -1
			}
			return 1
		}
		return strings.Compare(a.HostID, b.HostID)
	})
}

// TestHotspotOrderMatchesComparatorSort: ordering (margin, prediction index)
// keys and writing the rows afterwards gives the rows the comparator sort
// gives, on random predictions whose temperatures are drawn from a few
// values so that margins tie often, over ids whose table order is not their
// lexicographic order. A generation's order, built from its hot rows in
// table order, and the live index's sorted view are checked the same way.
func TestHotspotOrderMatchesComparatorSort(t *testing.T) {
	const threshold = 65.0
	rng := rand.New(rand.NewPCG(51, 7))
	var ties int
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.IntN(300)
		preds := make([]Prediction, 0, n)
		for i := 0; i < n; i++ {
			temp := threshold - 3 + float64(rng.IntN(8))
			if rng.IntN(4) == 0 {
				temp += rng.Float64() // an untied margin now and then
			}
			preds = append(preds, Prediction{
				HostID:       fmt.Sprintf("r%d-h%d", rng.IntN(4), i),
				TempC:        temp,
				UncertaintyC: rng.Float64(),
				Stale:        rng.IntN(10) == 0,
			})
		}
		// A generation as buildSnapshot writes it: the hot rows in table
		// order.
		g := &snapGen{}
		var want []Hotspot
		var keys []hotKey
		ix := hotIndex{entries: make(map[string]Hotspot)}
		for i := range preds {
			ix.upsert(&preds[i], threshold)
			if p := &preds[i]; !p.Stale && p.TempC > threshold {
				want = append(want, hotspotOf(p, threshold))
				keys = append(keys, hotKey{p.TempC - threshold, int32(i)})
				g.snap.hot = append(g.snap.hot, hotspotOf(p, threshold))
			}
		}
		refSortHotspots(want)
		for i := 1; i < len(want); i++ {
			if want[i].MarginC == want[i-1].MarginC {
				ties++
			}
		}
		got := appendHotspots(nil, keys, func(i int32) Hotspot { return hotspotOf(&preds[i], threshold) })
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: appendHotspots\n got %+v\nwant %+v", trial, got, want)
		}
		if got := g.hotspots(); !slices.Equal(got, want) {
			t.Fatalf("trial %d: generation order\n got %+v\nwant %+v", trial, got, want)
		}
		if live := ix.snapshotInto(nil); !reflect.DeepEqual(live, want) {
			t.Fatalf("trial %d: index view\n got %+v\nwant %+v", trial, live, want)
		}
	}
	if ties == 0 {
		t.Fatal("no tied margins: the host-id tie break went untested")
	}
}
