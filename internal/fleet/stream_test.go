package fleet

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// streamGridConfig is a source-driven config whose population is
// discovered purely from pushed readings.
func streamGridConfig() Config {
	cfg := DefaultConfig()
	cfg.MaxMigrationsPerRound = 0
	cfg.Seed = 7
	return cfg
}

// TestStreamHotspotIndexMatchesRoundRecompute is the reconciliation
// property test: over randomized push interleavings — random hosts (known
// and never-seen), random utilizations, random batch sizes, predict flag
// on and off — the incrementally maintained hotspot index must be
// bit-identical to the batch round's full recompute at every round
// boundary.
func TestStreamHotspotIndexMatchesRoundRecompute(t *testing.T) {
	for _, seed := range []int64{1, 2, 42} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			src := &gridSource{}
			c, err := NewWithSource(streamGridConfig(), src, syntheticStable)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(seed))
			const hostPool = 96
			var totalDrift int64
			for round := 0; round < 15; round++ {
				n := rng.Intn(64)
				readings := make([]Reading, n)
				for i := range readings {
					util := rng.Float64()
					readings[i] = Reading{
						HostID:  fmt.Sprintf("h%03d", rng.Intn(hostPool)),
						AtS:     src.now + rng.Float64()*c.cfg.UpdateEveryS,
						TempC:   30 + 45*util,
						Util:    util,
						MemFrac: 0.5,
					}
				}
				results := make([]IngestResult, len(readings))
				c.IngestBatch(readings, rng.Intn(2) == 0, results)
				for i, res := range results {
					if res.Outcome == IngestDropped {
						t.Fatalf("round %d reading %d: dropped", round, i)
					}
				}
				rep, err := c.RunRound()
				if err != nil {
					t.Fatal(err)
				}
				totalDrift += int64(rep.StreamHotDrift)
				checkIndexMatchesRound(t, c, round)
			}
			applied, created, deferred, _ := c.StreamTotals()
			if applied == 0 || deferred == 0 {
				t.Fatalf("interleaving too tame: applied %d deferred %d", applied, deferred)
			}
			if totalDrift == 0 {
				t.Fatal("no drift ever reconciled; the property test exercised nothing")
			}
			t.Logf("seed %d: applied %d created %d deferred %d drift %d", seed, applied, created, deferred, totalDrift)
		})
	}
}

// checkIndexMatchesRound fails unless the live index exists and holds
// exactly the published round's hotspots, in order.
func checkIndexMatchesRound(t *testing.T, c *Controller, round int) {
	t.Helper()
	live, ok := c.StreamHotspotsInto(nil)
	if !ok {
		t.Fatalf("round %d: no live index after a push", round)
	}
	c.ViewSnapshot(func(s *Snapshot) {
		if len(live) != len(s.Hotspots()) {
			t.Fatalf("round %d: index has %d hotspots, recompute %d", round, len(live), len(s.Hotspots()))
		}
		for i := range live {
			if live[i] != s.Hotspots()[i] {
				t.Fatalf("round %d hotspot %d: index %+v != recompute %+v", round, i, live[i], s.Hotspots()[i])
			}
		}
	})
}

// TestStreamHotspotIndexMatchesRoundsSimFleet runs the same boundary
// equality on a simulated fleet (round-driven telemetry, interleaved
// pushes for the fleet's own hosts): the index must track the recompute
// even though sim fleets never create sessions inline.
func TestStreamHotspotIndexMatchesRoundsSimFleet(t *testing.T) {
	cfg := testConfig()
	c, err := New(cfg, syntheticStable)
	if err != nil {
		t.Fatal(err)
	}
	seedHotHost(t, c)
	rng := rand.New(rand.NewSource(3))
	hosts := c.Hosts()
	for round := 0; round < 20; round++ {
		n := rng.Intn(8)
		readings := make([]Reading, n)
		for i := range readings {
			readings[i] = Reading{
				HostID: hosts[rng.Intn(len(hosts))],
				AtS:    c.src.NowS() + rng.Float64()*cfg.UpdateEveryS,
				TempC:  35 + rng.Float64()*40,
			}
		}
		results := make([]IngestResult, len(readings))
		c.IngestBatch(readings, false, results)
		if _, err := c.RunRound(); err != nil {
			t.Fatal(err)
		}
		if c.Streaming() {
			checkIndexMatchesRound(t, c, round)
		}
	}
	if !c.Streaming() {
		t.Fatal("twenty rounds of pushes built no index")
	}
	// A pushed reading for a host the sim does not own defers (no inline
	// create against a fingerprint-keyed cache), and the drain discards it.
	results := make([]IngestResult, 1)
	c.IngestBatch([]Reading{{HostID: "foreign", AtS: c.src.NowS(), TempC: 50}}, false, results)
	if results[0].Outcome != IngestDeferred {
		t.Fatalf("foreign host outcome = %d, want deferred", results[0].Outcome)
	}
}

// TestStreamingIngestFreshness: a pushed reading must be visible in the
// hotspot index (and in the synchronous prediction) immediately — no round
// in between.
func TestStreamingIngestFreshness(t *testing.T) {
	cfg := testConfig()
	cfg.ThresholdC = 40
	c, err := New(cfg, syntheticStable)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.RunRound(); err != nil { // builds sessions
		t.Fatal(err)
	}
	host := c.Hosts()[0]
	// Timestamp the push one Δ_update past the round's last sample so the
	// per-arrival calibration actually fires (observes inside the schedule
	// are deliberate no-ops — that is the idempotency the two paths share).
	now := c.src.NowS() + cfg.UpdateEveryS

	// A scorching reading: the Δ_gap-ahead prediction must cross the (low)
	// threshold and appear in the index before any round runs.
	results := make([]IngestResult, 1)
	c.IngestBatch([]Reading{{HostID: host, AtS: now, TempC: 90}}, true, results)
	if results[0].Outcome != IngestStreamed {
		t.Fatalf("outcome = %d, want streamed", results[0].Outcome)
	}
	p := results[0].Pred
	if p.HostID != host || p.TempC <= cfg.ThresholdC {
		t.Fatalf("synchronous prediction %+v did not cross threshold %v", p, cfg.ThresholdC)
	}
	live, _ := c.StreamHotspotsInto(nil)
	found := false
	for _, h := range live {
		if h.HostID == host {
			found = true
			if h.PredictedTempC != p.TempC {
				t.Fatalf("index temp %v != synchronous prediction %v", h.PredictedTempC, p.TempC)
			}
		}
	}
	if !found {
		t.Fatalf("pushed hotspot %s not in live index %+v", host, live)
	}
	if c.HotspotStalenessS() > 60 {
		t.Fatalf("hotspot staleness %v implausible", c.HotspotStalenessS())
	}
	if _, _, _, preds := c.StreamTotals(); preds != 1 {
		t.Fatalf("predictions total = %d, want 1", preds)
	}
}

// TestNeverPushedBuildsNoIndex: a controller nothing pushes to never builds
// the live index — its rounds reconcile nothing, its reports carry no stream
// fields, its totals stay zero and its checkpoint has no stream section (the
// golden-trace byte-stability this rides on is pinned by
// TestTraceReplayGolden). The first push builds it.
func TestNeverPushedBuildsNoIndex(t *testing.T) {
	c, err := New(testConfig(), syntheticStable)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		rep, err := c.RunRound()
		if err != nil {
			t.Fatal(err)
		}
		if rep.StreamApplied != 0 || rep.StreamCreated != 0 || rep.StreamDeferred != 0 || rep.StreamHotDrift != 0 {
			t.Fatalf("stream fields in a never-pushed report: %+v", rep)
		}
	}
	if c.Streaming() {
		t.Fatal("index built without a push")
	}
	if a, cr, de, pr := c.StreamTotals(); a != 0 || cr != 0 || de != 0 || pr != 0 {
		t.Fatal("stream totals nonzero")
	}
	if got, ok := c.StreamHotspotsInto(nil); ok || len(got) != 0 {
		t.Fatalf("live index served %+v without a push", got)
	}
	if st, err := c.Checkpoint(); err != nil || st.Stream != nil {
		t.Fatalf("never-pushed checkpoint: stream %+v, err %v", st.Stream, err)
	}

	results := make([]IngestResult, 2)
	host := c.Hosts()[0]
	acc := c.IngestBatch([]Reading{
		{HostID: host, AtS: c.src.NowS(), TempC: 50},
		{HostID: "nobody", AtS: c.src.NowS(), TempC: 50},
	}, true, results)
	if acc != 2 || results[0].Outcome != IngestStreamed || results[1].Outcome != IngestDeferred {
		t.Fatalf("first push: accepted %d, outcomes %+v", acc, results)
	}
	if !c.Streaming() {
		t.Fatal("the first push built no index")
	}
}

// TestStreamingRoundReportCounters: per-round deltas land in the report —
// applied for owned hosts, deferred for foreign ones, and drift when the
// recompute corrects streamed entries.
func TestStreamingRoundReportCounters(t *testing.T) {
	cfg := testConfig()
	cfg.ThresholdC = 40
	c, err := New(cfg, syntheticStable)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.RunRound(); err != nil {
		t.Fatal(err)
	}
	hosts := c.Hosts()
	// Past the last calibration (so the pushes calibrate) AND slightly ahead
	// of the next round's clock: the round re-evaluates the prediction at
	// its own (clamped) now, which differs from the push instant — exactly
	// the drift reconciliation must correct.
	at := c.src.NowS() + cfg.UpdateEveryS + 5
	readings := []Reading{
		{HostID: hosts[0], AtS: at, TempC: 95},
		{HostID: hosts[1], AtS: at, TempC: 96},
		{HostID: "foreign", AtS: at, TempC: 50},
	}
	results := make([]IngestResult, len(readings))
	c.IngestBatch(readings, false, results)
	rep, err := c.RunRound()
	if err != nil {
		t.Fatal(err)
	}
	if rep.StreamApplied != 2 || rep.StreamDeferred != 1 {
		t.Fatalf("report applied %d deferred %d, want 2/1", rep.StreamApplied, rep.StreamDeferred)
	}
	if rep.StreamHotDrift == 0 {
		t.Fatal("scorching pushes produced no reconciliation drift")
	}
	// Next round with no pushes: deltas reset.
	rep, err = c.RunRound()
	if err != nil {
		t.Fatal(err)
	}
	if rep.StreamApplied != 0 || rep.StreamDeferred != 0 {
		t.Fatalf("deltas did not reset: %+v", rep)
	}
}

// TestStreamingConcurrentWithRounds hammers IngestBatch + StreamHotspotsInto
// concurrently with RunRound on a streaming sim fleet — the -race guard for
// the index/reconcile locking and the TryLock warm-anchor path.
func TestStreamingConcurrentWithRounds(t *testing.T) {
	c, err := New(testConfig(), syntheticStable)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.RunRound(); err != nil {
		t.Fatal(err)
	}
	hosts := c.Hosts()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			readings := make([]Reading, 4)
			results := make([]IngestResult, len(readings))
			var buf []Hotspot
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				for j := range readings {
					readings[j] = Reading{
						HostID: hosts[rng.Intn(len(hosts))],
						AtS:    float64(i),
						TempC:  35 + rng.Float64()*50,
					}
				}
				c.IngestBatch(readings, i%2 == 0, results)
				buf, _ = c.StreamHotspotsInto(buf[:0])
				c.ViewSnapshot(func(*Snapshot) {})
			}
		}(w)
	}
	for round := 0; round < 15; round++ {
		if _, err := c.RunRound(); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}

// TestFirstPushConcurrentWithRounds builds the live index while rounds run:
// on a simulated fleet that has published rounds but never been pushed to,
// pushers race their first readings against a round, and the round after
// that (run alone) must leave the index equal to its recompute. Under -race
// this guards liveIndex's build and seed against the round's publication.
func TestFirstPushConcurrentWithRounds(t *testing.T) {
	c, err := New(testConfig(), syntheticStable)
	if err != nil {
		t.Fatal(err)
	}
	seedHotHost(t, c)
	for round := 0; round < 3; round++ {
		if _, err := c.RunRound(); err != nil {
			t.Fatal(err)
		}
	}
	hosts := c.Hosts()
	for iter := 0; iter < 8; iter++ {
		now := c.src.NowS() // read before the round moves the clock
		var wg sync.WaitGroup
		for w := 0; w < 3; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(iter*8 + w)))
				readings := make([]Reading, 4)
				for j := range readings {
					readings[j] = Reading{
						HostID: hosts[rng.Intn(len(hosts))],
						AtS:    now + rng.Float64()*c.cfg.UpdateEveryS,
						TempC:  35 + rng.Float64()*50,
					}
				}
				c.IngestBatch(readings, w == 0, make([]IngestResult, len(readings)))
			}(w)
		}
		_, err := c.RunRound()
		wg.Wait()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.RunRound(); err != nil {
			t.Fatal(err)
		}
		checkIndexMatchesRound(t, c, iter)
	}
}
