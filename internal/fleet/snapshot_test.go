package fleet

import (
	"fmt"
	"slices"
	"sync"
	"testing"
)

// snapController builds a source-driven controller tracking n hosts whose
// temperatures straddle the hotspot threshold, with two rounds already run
// (population discovered, anchors cached, snapshot published). tweak adjusts
// the configuration before the controller is built.
func snapController(t *testing.T, n int, tweak ...func(*Config)) (*Controller, *gridSource, []string) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.MaxHosts = n
	cfg.ThresholdC = 70
	for _, f := range tweak {
		f(&cfg)
	}
	src := &gridSource{}
	ctl, err := NewWithSource(cfg, src, syntheticStable)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("sn-%03d", i)
	}
	for round := 0; round < 2; round++ {
		feedRound(ctl, src, ids)
		if _, err := ctl.RunRound(); err != nil {
			t.Fatal(err)
		}
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
			Util:    float64(i%101) / 100, // up to util 1.0 → predicted 22+75 > 70
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
		t.Fatalf("%d fresh snapshot generations over warm rounds, want <= 2", fresh)
	}
}

// TestWarmIngestBatchZeroAlloc pins the push path's side of the same
// contract: a warm IngestBatch allocates nothing, whether it only buffers
// for the next round (streaming off), also applies every reading on arrival
// (streamed), or returns the Δ_gap-ahead prediction per reading as well
// (predict). engine.ObserveBatch alone is pinned in internal/engine; this is
// the call behind POST /v1/fleet/ingest.
func TestWarmIngestBatchZeroAlloc(t *testing.T) {
	const hosts, runs = 64, 100
	for _, tc := range []struct {
		name               string
		streaming, predict bool
		want               IngestOutcome
	}{
		{"buffered", false, false, IngestBuffered},
		{"streamed", true, false, IngestStreamed},
		{"predict", true, true, IngestStreamed},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctl, src, ids := snapController(t, hosts, func(cfg *Config) {
				cfg.StreamingIngest = tc.streaming
				// Room for every push of the run: no round in between, no drop.
				cfg.IngestBuffer = hosts * (runs + 2)
			})
			readings := make([]Reading, hosts)
			results := make([]IngestResult, hosts)
			at := src.now
			allocs := testing.AllocsPerRun(runs, func() {
				at += 5 // one sampling interval: every third push calibrates
				for i, id := range ids {
					readings[i] = Reading{HostID: id, AtS: at, TempC: 30 + float64(i%50), Util: float64(i%101) / 100, MemFrac: 0.25}
				}
				if n := ctl.IngestBatch(readings, tc.predict, results); n != hosts || results[0].Outcome != tc.want {
					t.Fatalf("accepted %d/%d readings, first outcome %v, want %v", n, hosts, results[0].Outcome, tc.want)
				}
				if tc.predict && results[hosts-1].Pred.HostID != ids[hosts-1] {
					t.Fatalf("no prediction came back for %s: %+v", ids[hosts-1], results[hosts-1])
				}
			})
			if allocs != 0 {
				t.Fatalf("warm IngestBatch (%s) allocates %.1f/op, want 0", tc.name, allocs)
			}
		})
	}
}

// TestSnapshotConcurrentReadersDuringRounds is the -race proof for the
// copy-on-read publication: views and metrics-style full iterations run
// concurrently with control rounds, and every observed snapshot must be
// internally consistent (hotspots present in the predicted map, round
// numbers monotone per reader).
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
