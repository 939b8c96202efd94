package fleet

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"sync"
	"testing"
)

// snapController builds a source-driven controller tracking n hosts whose
// temperatures straddle the hotspot threshold, with two rounds already run
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
		ingest(ctl, Reading{
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
			if len(s.Predicted) != 64 || len(s.HotSet()) == 0 {
				t.Fatalf("snapshot lost state: %d predicted, %d hotspots",
					len(s.Predicted), len(s.HotSet()))
			}
		})
	})
	if allocs != 0 {
		t.Fatalf("warm round + snapshot view allocates %.1f/op, want 0", allocs)
	}
	if fresh := ctl.snaps.fresh.Load(); fresh > 2 {
		t.Fatalf("%d fresh snapshot generations over warm rounds, want <= 2", fresh)
	}
}

// TestWarmIngestBatchZeroAlloc pins the push path's side of the same
// contract: a warm IngestBatch allocates nothing, whether it applies every
// reading on arrival (streamed) or returns the Δ_gap-ahead prediction per
// reading as well (predict). engine.ObserveBatch alone is pinned in internal/engine; this is
// the call behind POST /v1/fleet/ingest.
func TestWarmIngestBatchZeroAlloc(t *testing.T) {
	const hosts, runs = 64, 100
	for _, tc := range []struct {
		name    string
		predict bool
	}{
		{"streamed", false},
		{"predict", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctl, src, ids := snapController(t, hosts)
			// Room for every push of the run: no round in between, no drop.
			withIngestBuffer(ctl, hosts*(runs+2))
			readings := make([]Reading, hosts)
			results := make([]IngestResult, hosts)
			at := src.now
			allocs := testing.AllocsPerRun(runs, func() {
				at += 5 // one sampling interval: every third push calibrates
				for i, id := range ids {
					readings[i] = Reading{HostID: id, AtS: at, TempC: 30 + float64(i%50), Util: float64(i%101) / 100, MemFrac: 0.25}
				}
				if n := ctl.IngestBatch(readings, tc.predict, results); n != hosts || results[0].Outcome != IngestStreamed {
					t.Fatalf("accepted %d/%d readings, first outcome %v, want streamed", n, hosts, results[0].Outcome)
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
					for _, h := range s.Hotspots() {
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
	// Starve the first 4 hosts: after staleAfterS (3 rounds) they must be
	// degraded out of the predicted map in whatever generation is current.
	for i := 0; i < 6; i++ {
		now := src.now
		for j, id := range ids[4:] {
			ingest(ctl, Reading{HostID: id, AtS: now, TempC: 35 + float64(j), Util: 0.4, MemFrac: 0.2})
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
// the load swing moves every ψ_stable past engine.ReanchorEpsC (each session
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
			ingest(ctl, Reading{HostID: id, AtS: src.now, TempC: 30 + float64(i%50), Util: util, MemFrac: 0.25})
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

// checkSnapshotColumns compares the published generation with an eager
// rebuild from the controller's state after the round: the maps the round
// used to rewrite every round (one entry per non-stale prediction, one per
// slot holding a reading) must equal the lazily filled maps, and the
// columns, walked in id order, must say the same per host. StaleHosts must
// list the hosts whose slot holds a stale prediction, sorted.
func checkSnapshotColumns(t *testing.T, c *Controller, step string) {
	t.Helper()
	wantPred := map[string]float64{}
	var wantStale []string
	for i := range c.slots {
		if p := &c.slots[i].Pred; c.slots[i].Predicted && p.Stale {
			wantStale = append(wantStale, c.order[i])
		} else if c.slots[i].Predicted {
			wantPred[c.order[i]] = p.TempC
		}
	}
	slices.Sort(wantStale)
	wantLatest := map[string]Reading{}
	for i, id := range c.order {
		if c.slots[i].Present {
			wantLatest[id] = c.slots[i].Reading
		}
	}
	c.ViewSnapshot(func(s *Snapshot) {
		if !maps.Equal(s.Predicted, wantPred) {
			t.Fatalf("%s: Predicted %v, eager rebuild %v", step, s.Predicted, wantPred)
		}
		if !maps.Equal(s.Latest, wantLatest) {
			t.Fatalf("%s: Latest %v, eager rebuild %v", step, s.Latest, wantLatest)
		}
		if !slices.Equal(s.StaleHosts, wantStale) {
			t.Fatalf("%s: StaleHosts %v, sorted stale slots %v", step, s.StaleHosts, wantStale)
		}
		if s.Len() != len(c.order) {
			t.Fatalf("%s: %d hosts in the columns, table has %d", step, s.Len(), len(c.order))
		}
		for k := range s.Len() {
			h := s.At(k)
			if _, ok := c.pos[h.ID]; !ok {
				t.Fatalf("%s: column host %s is not in the table", step, h.ID)
			}
			if k > 0 && s.At(k-1).ID >= h.ID {
				t.Fatalf("%s: At(%d) = %s after %s: not in id order", step, k, h.ID, s.At(k-1).ID)
			}
			if r, ok := wantLatest[h.ID]; h.HasLatest != ok || ok && h.Latest != r {
				t.Fatalf("%s: host %s latest %+v (%v), eager rebuild %+v (%v)", step, h.ID, h.Latest, h.HasLatest, r, ok)
			}
			if p, ok := wantPred[h.ID]; math.IsNaN(h.PredictedC) == ok || ok && h.PredictedC != p {
				t.Fatalf("%s: host %s predicted %v, eager rebuild %v (%v)", step, h.ID, h.PredictedC, p, ok)
			}
		}
	})
}

// TestSnapshotMapsMatchColumns: after every round, the maps ViewSnapshot
// fills on first borrow equal an eager rebuild of what the round used to
// write, and so do the columns — through a host discovered, a MaxHosts
// trim, hosts going stale, hosts forgotten by staleness eviction, a
// checkpoint restore, and on a simulated fleet whose table is not in id
// order (r0-h10 before r0-h2) with sensors dropping out.
func TestSnapshotMapsMatchColumns(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxHosts = 8
	src := &gridSource{}
	ctl, err := NewWithSource(cfg, src, syntheticStable)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]string, 12)
	for i := range ids {
		ids[i] = fmt.Sprintf("mc-%02d", i)
	}
	var discarded, stale, evicted int
	step := 0
	round := func(hosts ...string) {
		t.Helper()
		for i, id := range hosts {
			ingest(ctl, Reading{HostID: id, AtS: src.now, TempC: 40 + float64(i+step%5), Util: 0.3 + 0.05*float64(i), MemFrac: 0.25})
		}
		rep, err := ctl.RunRound()
		if err != nil {
			t.Fatal(err)
		}
		step++
		discarded += rep.DiscardedHosts
		stale += rep.StaleHosts
		evicted += rep.Evicted
		checkSnapshotColumns(t, ctl, fmt.Sprintf("step %d", step))
	}
	round(ids[:6]...)
	round(ids[:6]...)
	round(ids[:7]...) // one host discovered
	round(append(slices.Clone(ids[:6]), ids[8:]...)...)
	if discarded == 0 {
		t.Fatal("no host trimmed at MaxHosts")
	}
	for range 5 {
		round(ids[2:6]...) // ids[0:2] and the newcomers go stale
	}
	src.now += evictAfterS
	round(ids[3:5]...) // everyone else is forgotten
	round(ids[3:5]...)
	if stale == 0 || evicted == 0 {
		t.Fatalf("scenario too tame: %d stale host-rounds, %d evicted", stale, evicted)
	}

	st, err := ctl.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	src = &gridSource{}
	if ctl, err = NewWithSource(cfg, src, syntheticStable); err != nil {
		t.Fatal(err)
	}
	if err := ctl.Restore(st); err != nil {
		t.Fatal(err)
	}
	for range 4 {
		round(ids[3:9]...)
	}

	sim := testConfig()
	sim.Racks, sim.HostsPerRack = 2, 12
	if ctl, err = New(sim, syntheticStable); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 8; r++ {
		if r == 2 {
			// r0-h10 sorts before r0-h2 but sits after it in the table.
			for _, id := range []string{"r0-h2", "r0-h10", "r1-h11"} {
				if err := setTelemetryMuted(ctl, id, true); err != nil {
					t.Fatal(err)
				}
			}
		}
		rep, err := ctl.RunRound()
		if err != nil {
			t.Fatal(err)
		}
		if r == 7 && rep.StaleHosts != 3 {
			t.Fatalf("simulated fleet: %d stale hosts, want 3", rep.StaleHosts)
		}
		checkSnapshotColumns(t, ctl, fmt.Sprintf("sim round %d", r+1))
	}
}

// TestSnapshotFillUnderConcurrentRounds is the -race proof for the lazy
// fill: readers borrow every generation while rounds publish new ones and a
// quarter of the hosts go stale and come back. Each borrow must see the
// maps of its own generation: every host with a reading is predicted or
// stale, each exactly once, and every column agrees with the maps. A fourth
// reader borrows the columns alone (ViewColumns) beside the fills: it sees
// no map and the same per-host invariant.
func TestSnapshotFillUnderConcurrentRounds(t *testing.T) {
	const hosts = 32
	ctl, src, ids := snapController(t, hosts)
	stop := make(chan struct{})
	fail := make(chan string, 16)
	report := func(format string, args ...any) {
		select {
		case fail <- fmt.Sprintf(format, args...):
		default:
		}
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			ctl.ViewColumns(func(s *Snapshot) {
				predicted := 0
				for k := range s.Len() {
					if h := s.At(k); !math.IsNaN(h.PredictedC) {
						predicted++
					}
				}
				if s.Predicted != nil || s.Latest != nil || predicted+len(s.StaleHosts) != s.Len() {
					report("round %d: column view: maps %v/%v, %d predicted + %d stale, %d hosts",
						s.Round, s.Predicted != nil, s.Latest != nil, predicted, len(s.StaleHosts), s.Len())
				}
			})
		}
	}()
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				ctl.ViewSnapshot(func(s *Snapshot) {
					if got := len(s.Predicted) + len(s.StaleHosts); got != s.Len() || len(s.Latest) != s.Len() {
						report("round %d: %d predicted + %d stale, %d readings, %d hosts",
							s.Round, len(s.Predicted), len(s.StaleHosts), len(s.Latest), s.Len())
					}
					for k := range s.Len() {
						h := s.At(k)
						p, ok := s.Predicted[h.ID]
						r, has := s.Latest[h.ID]
						if math.IsNaN(h.PredictedC) == ok || ok && p != h.PredictedC || has != h.HasLatest || r != h.Latest {
							report("round %d: host %s: columns and maps disagree", s.Round, h.ID)
						}
					}
				})
			}
		}()
	}
	var sawStale bool
	for round := 0; round < 24; round++ {
		fed := ids
		if round%8 < 4 {
			fed = ids[hosts/4:] // the first quarter goes dark, then comes back
		}
		now := src.now
		for i, id := range fed {
			ingest(ctl, Reading{HostID: id, AtS: now, TempC: 30 + float64(i%50), Util: float64(i%101) / 100, MemFrac: 0.25})
		}
		rep, err := ctl.RunRound()
		if err != nil {
			close(stop)
			wg.Wait()
			t.Fatal(err)
		}
		sawStale = sawStale || rep.StaleHosts > 0
	}
	close(stop)
	wg.Wait()
	select {
	case msg := <-fail:
		t.Fatal(msg)
	default:
	}
	if !sawStale {
		t.Fatal("no host went stale: the refill path went untested")
	}
}

// darkQuarterRounds returns a step that feeds and runs one round of a
// snapController fleet of 64 hosts, whose first 16 hosts go dark for four
// rounds in every eight: hosts going stale and coming back shrink and grow
// the predicted map and the hot set.
func darkQuarterRounds(t *testing.T, ctl *Controller, src *gridSource, ids []string) func() {
	round := 0
	return func() {
		fed := ids
		if round%8 < 4 {
			fed = ids[16:]
		}
		round++
		now := src.now
		for i, id := range fed {
			ingest(ctl, Reading{HostID: id, AtS: now, TempC: 30 + float64(i%50), Util: float64(i%101) / 100, MemFrac: 0.25})
		}
		if _, err := ctl.RunRound(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestWarmSnapshotFillZeroAlloc: the first borrow of a recycled warm
// generation fills its maps from the columns without allocating, also when
// hosts going stale and coming back shrink and grow the predicted map
// (the clear-and-refill pass).
func TestWarmSnapshotFillZeroAlloc(t *testing.T) {
	ctl, src, ids := snapController(t, 64)
	step := darkQuarterRounds(t, ctl, src, ids)
	for range 16 { // every generation of the ring filled at both sizes
		step()
		ctl.ViewSnapshot(func(*Snapshot) {})
	}
	var fills int
	allocs := testing.AllocsPerRun(64, func() {
		step()
		g := ctl.snaps.published.Load()
		if g.filled.Load() {
			t.Fatal("a freshly published generation is already filled")
		}
		g.fillMaps()
		fills++
	})
	if allocs != 0 {
		t.Fatalf("warm snapshot fill allocates %.1f/op, want 0", allocs)
	}
	if fills == 0 {
		t.Fatal("no fill ran")
	}
}

// TestWarmHotspotOrderZeroAlloc: a warm round, then the first ordered read
// of the generation it published, which sorts the hot set, then a second
// ordered read, which shares the first one's order, allocate nothing
// together, also while the hot set shrinks and grows.
func TestWarmHotspotOrderZeroAlloc(t *testing.T) {
	ctl, src, ids := snapController(t, 64)
	step := darkQuarterRounds(t, ctl, src, ids)
	read := func() (n int) {
		ctl.ViewColumns(func(s *Snapshot) { n = len(s.Hotspots()) })
		return n
	}
	for range 16 { // every generation of the ring ordered at both sizes
		step()
		read()
	}
	least, most := math.MaxInt, 0
	allocs := testing.AllocsPerRun(64, func() {
		step()
		if ctl.snaps.published.Load().ordered.Load() {
			t.Fatal("a freshly published generation is already ordered")
		}
		first, second := read(), read()
		if second != first {
			t.Fatalf("ordered reads saw %d then %d hotspots", first, second)
		}
		least, most = min(least, first), max(most, first)
	})
	if allocs != 0 {
		t.Fatalf("warm round + two ordered reads allocate %.1f/op, want 0", allocs)
	}
	if most == 0 || least == most {
		t.Fatalf("hot sets of %d to %d hosts: the order's storage reuse went untested", least, most)
	}
}

// TestHotspotOrderRacesRoundAndFirstPush is the -race proof for the lazy
// order: readers order every generation they borrow while rounds publish
// new ones, and a first push builds the live index in the middle, seeding
// it from the published hot set under the round lock while readers may be
// writing that generation's order. Every order a reader sees is its own
// generation's hot set, sorted; after the push the index agrees with the
// round that follows.
func TestHotspotOrderRacesRoundAndFirstPush(t *testing.T) {
	const hosts = 32
	for iter := 0; iter < 4; iter++ {
		ctl, src, ids := snapController(t, hosts)
		stop, push := make(chan struct{}), make(chan struct{})
		fail := make(chan string, 16)
		report := func(format string, args ...any) {
			select {
			case fail <- fmt.Sprintf(format, args...):
			default:
			}
		}
		var wg, started sync.WaitGroup
		for g := 0; g < 3; g++ {
			wg.Add(1)
			started.Add(1)
			go func() {
				defer wg.Done()
				for first := true; ; first = false {
					select {
					case <-stop:
						return
					default:
					}
					if first {
						started.Done()
					}
					ctl.ViewColumns(func(s *Snapshot) {
						hot, set := s.Hotspots(), s.HotSet()
						inSet := make(map[Hotspot]bool, len(set))
						for _, h := range set {
							inSet[h] = true
						}
						if len(hot) != len(set) {
							report("round %d: %d ordered hotspots, hot set of %d", s.Round, len(hot), len(set))
						}
						for k, h := range hot {
							if !inSet[h] {
								report("round %d: ordered hotspot %+v is not in the hot set", s.Round, h)
							}
							if k > 0 && (h.MarginC > hot[k-1].MarginC || h.MarginC == hot[k-1].MarginC && h.HostID <= hot[k-1].HostID) {
								report("round %d: hotspots %d and %d out of order", s.Round, k-1, k)
							}
						}
					})
				}
			}()
		}
		now := src.now
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-push
			readings := []Reading{{HostID: ids[hosts-1], AtS: now, TempC: 79, Util: 1, MemFrac: 0.25}}
			ctl.IngestBatch(readings, false, make([]IngestResult, len(readings)))
		}()
		started.Wait()
		for round := 0; round < 12; round++ {
			if round == 4 {
				close(push)
			}
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
		if !ctl.Streaming() {
			t.Fatal("the push built no live index")
		}
		feedRound(ctl, src, ids)
		if _, err := ctl.RunRound(); err != nil {
			t.Fatal(err)
		}
		checkIndexMatchesRound(t, ctl, iter)
	}
}
