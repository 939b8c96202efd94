package fleet

import (
	"fmt"
	"maps"
	"slices"
	"sync"
	"testing"
)

// snapController builds a source-driven controller tracking n hosts whose
// temperatures straddle the hotspot threshold, with one round already run
// (population discovered, anchors cached, snapshot published).
func snapController(t *testing.T, n int) (*Controller, *gridSource, []string) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.MaxHosts = n
	cfg.ThresholdC = 70
	src := &gridSource{}
	ctl, err := NewWithSource(cfg, src, syntheticStable)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("sn-%03d", i)
	}
	feed := func() {
		now := src.now
		for i, id := range ids {
			ctl.Ingest(Reading{
				HostID:  id,
				AtS:     now,
				TempC:   30 + float64(i%50),
				Util:    float64(i%101) / 100, // up to util 1.0 → predicted 22+75 > 70
				MemFrac: 0.25,
			})
		}
	}
	feed()
	if _, err := ctl.RunRound(); err != nil {
		t.Fatal(err)
	}
	feed()
	if _, err := ctl.RunRound(); err != nil {
		t.Fatal(err)
	}
	return ctl, src, ids
}

// feedRound pushes one fresh reading per host (keeping every session live)
// without allocating — the per-iteration telemetry for the zero-alloc round.
func feedRound(ctl *Controller, src *gridSource, ids []string) {
	now := src.now
	for i, id := range ids {
		ctl.Ingest(Reading{
			HostID:  id,
			AtS:     now,
			TempC:   30 + float64(i%50),
			Util:    float64(i%101) / 100,
			MemFrac: 0.25,
		})
	}
}

// TestWarmRoundZeroAlloc pins the tentpole contract: a warm control round —
// fresh telemetry ingested, engine round, cached anchors, hotspot map,
// snapshot publication through the recycled generation — allocates nothing,
// and the scoped snapshot read path allocates nothing either.
func TestWarmRoundZeroAlloc(t *testing.T) {
	ctl, src, ids := snapController(t, 64)
	allocs := testing.AllocsPerRun(100, func() {
		feedRound(ctl, src, ids)
		if _, err := ctl.RunRound(); err != nil {
			t.Fatal(err)
		}
		ctl.ViewSnapshot(func(s *Snapshot) {
			if len(s.Predicted) != 64 || len(s.Hotspots) == 0 {
				t.Fatalf("snapshot lost state: %d predicted, %d hotspots",
					len(s.Predicted), len(s.Hotspots))
			}
		})
	})
	if allocs != 0 {
		t.Fatalf("warm round + snapshot view allocates %.1f/op, want 0", allocs)
	}
	if fresh := ctl.SnapshotGenerations(); fresh > 2 {
		t.Fatalf("%d fresh snapshot generations for scoped-read-only rounds, want <= 2", fresh)
	}
}

// TestHotspotsReadZeroAlloc: the unscoped borrow itself is allocation-free
// (it hands out the published generation, it does not clone it).
func TestHotspotsReadZeroAlloc(t *testing.T) {
	ctl, _, _ := snapController(t, 32)
	var sink Snapshot
	allocs := testing.AllocsPerRun(100, func() {
		sink = ctl.Hotspots()
	})
	if allocs != 0 {
		t.Fatalf("Hotspots() allocates %.1f/op, want 0", allocs)
	}
	if len(sink.Predicted) != 32 {
		t.Fatalf("borrowed snapshot has %d predictions, want 32", len(sink.Predicted))
	}
}

// TestBorrowedSnapshotImmutable: a snapshot borrowed via Hotspots must never
// change, no matter how many rounds run afterwards — the escaped generation
// is retired, not recycled.
func TestBorrowedSnapshotImmutable(t *testing.T) {
	ctl, src, ids := snapController(t, 48)
	borrowed := ctl.Hotspots()
	round := borrowed.Round
	predicted := maps.Clone(borrowed.Predicted)
	uncertainty := maps.Clone(borrowed.Uncertainty)
	latest := maps.Clone(borrowed.Latest)
	hotspots := slices.Clone(borrowed.Hotspots)

	for i := 0; i < 6; i++ {
		feedRound(ctl, src, ids)
		if _, err := ctl.RunRound(); err != nil {
			t.Fatal(err)
		}
	}
	if cur := ctl.Hotspots(); cur.Round == round {
		t.Fatal("rounds did not advance the published snapshot")
	}
	if borrowed.Round != round {
		t.Fatalf("borrowed snapshot round mutated: %d -> %d", round, borrowed.Round)
	}
	if !maps.Equal(borrowed.Predicted, predicted) {
		t.Fatal("borrowed Predicted map mutated by later rounds")
	}
	if !maps.Equal(borrowed.Uncertainty, uncertainty) {
		t.Fatal("borrowed Uncertainty map mutated by later rounds")
	}
	if !maps.Equal(borrowed.Latest, latest) {
		t.Fatal("borrowed Latest map mutated by later rounds")
	}
	if !slices.Equal(borrowed.Hotspots, hotspots) {
		t.Fatal("borrowed Hotspots slice mutated by later rounds")
	}
}

// TestSnapshotConcurrentReadersDuringRounds is the -race proof for the
// copy-on-read publication: scoped views, unscoped borrows and metrics-style
// full iterations run concurrently with control rounds, and every observed
// snapshot must be internally consistent (hotspots present in the predicted
// map, round numbers monotone per reader).
func TestSnapshotConcurrentReadersDuringRounds(t *testing.T) {
	ctl, src, ids := snapController(t, 32)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	fail := make(chan string, 16)
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lastRound := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				ctl.ViewSnapshot(func(s *Snapshot) {
					if s.Round < lastRound {
						select {
						case fail <- fmt.Sprintf("round went backwards: %d -> %d", lastRound, s.Round):
						default:
						}
					}
					lastRound = s.Round
					for _, h := range s.Hotspots {
						if v, ok := s.Predicted[h.HostID]; !ok || v != h.PredictedTempC {
							select {
							case fail <- fmt.Sprintf("hotspot %s inconsistent with predicted map", h.HostID):
							default:
							}
						}
					}
					var total float64
					for _, r := range s.Latest {
						total += r.TempC
					}
					_ = total
				})
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			snap := ctl.Hotspots()
			for _, h := range snap.Hotspots {
				if v, ok := snap.Predicted[h.HostID]; !ok || v != h.PredictedTempC {
					select {
					case fail <- fmt.Sprintf("borrowed hotspot %s inconsistent", h.HostID):
					default:
					}
				}
			}
		}
	}()
	for round := 0; round < 12; round++ {
		feedRound(ctl, src, ids)
		if _, err := ctl.RunRound(); err != nil {
			close(stop)
			wg.Wait()
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	select {
	case msg := <-fail:
		t.Fatal(msg)
	default:
	}
}

// TestSnapshotMembershipShrink: predictions for hosts that go stale (or are
// evicted) must vanish from recycled generations, not linger from two rounds
// ago — the clear-and-refill fallback of the in-place rewrite.
func TestSnapshotMembershipShrink(t *testing.T) {
	ctl, src, ids := snapController(t, 16)
	// Starve the first 4 hosts: after StaleAfterS (3 rounds) they must be
	// degraded out of the predicted map in whatever generation is current.
	for i := 0; i < 6; i++ {
		now := src.now
		for j, id := range ids[4:] {
			ctl.Ingest(Reading{HostID: id, AtS: now, TempC: 35 + float64(j), Util: 0.4, MemFrac: 0.2})
		}
		if _, err := ctl.RunRound(); err != nil {
			t.Fatal(err)
		}
	}
	ctl.ViewSnapshot(func(s *Snapshot) {
		for _, id := range ids[:4] {
			if _, ok := s.Predicted[id]; ok {
				t.Fatalf("stale host %s still in recycled generation's predicted map", id)
			}
			if !slices.Contains(s.StaleHosts, id) {
				t.Fatalf("stale host %s not reported stale", id)
			}
		}
		if len(s.Predicted) != 12 {
			t.Fatalf("predicted map has %d entries, want 12", len(s.Predicted))
		}
	})
}

// TestColdRoundAllocCeiling bounds what a source-driven cold round may
// allocate: right after InvalidateAnchorCache every host misses (its case is
// carved from the round arena, not built from fresh strings and slices), and
// the load swing moves every ψ_stable past ReanchorEpsC (each session
// re-anchors in place, not by building a new one). What is left is a handful
// of per-round allocations — the predictor's result slice, the miss-batch
// bookkeeping — independent of the host count.
func TestColdRoundAllocCeiling(t *testing.T) {
	const hosts = 64
	ctl, src, ids := snapController(t, hosts)
	high := false
	round := func() RoundReport {
		high = !high
		for i, id := range ids {
			util := float64(i%32) / 100 // about 32 distinct buckets, two hosts each
			if high {
				util += 0.5
			}
			ctl.Ingest(Reading{HostID: id, AtS: src.now, TempC: 30 + float64(i%50), Util: util, MemFrac: 0.25})
		}
		ctl.InvalidateAnchorCache()
		rep, err := ctl.RunRound()
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	round() // sizes the arena and the miss buffers
	if rep := round(); rep.AnchorMisses != hosts || rep.AnchorFanout < 24 || rep.Reanchored != hosts {
		t.Fatalf("cold round: %d misses, fan-out %d, %d re-anchored; want %d / about 32 / %d",
			rep.AnchorMisses, rep.AnchorFanout, rep.Reanchored, hosts, hosts)
	}
	const ceiling = 16 // measured 8; before the arena and the in-place re-anchor, 871
	allocs := testing.AllocsPerRun(20, func() { round() })
	t.Logf("cold source-driven round: %.1f allocs/op", allocs)
	if allocs > ceiling {
		t.Fatalf("cold source-driven round allocates %.1f/op, ceiling %d", allocs, ceiling)
	}
}
