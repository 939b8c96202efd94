package fleet

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"sync"
	"testing"
)

// syntheticStable maps a host case to ambient plus a utilization-
// proportional rise; the dynamic calibration γ reconciles its deliberate
// imperfection with the measured trajectory, exactly as with a real model.
var syntheticStable = SyntheticStablePredictor(75)

// snapshotOf copies the published snapshot out of its ViewSnapshot borrow,
// for tests that inspect one after the call (and after later rounds).
func snapshotOf(c *Controller) (out Snapshot) {
	c.ViewSnapshot(func(s *Snapshot) {
		out = *s
		out.Hotspots = slices.Clone(s.Hotspots)
		out.StaleHosts = slices.Clone(s.StaleHosts)
		out.Predicted = maps.Clone(s.Predicted)
		out.Latest = maps.Clone(s.Latest)
	})
	return out
}

func testConfig() Config {
	cfg := DefaultConfig()
	cfg.Racks = 2
	cfg.HostsPerRack = 8
	cfg.ThresholdC = 70
	cfg.MaxMigrationsPerRound = 0
	cfg.Seed = 7
	return cfg
}

// seedHotHost pins host r0-h0 at full utilization: 6 × 4-vCPU VMs of
// all-out CPU tasks (24 vCPUs on 16 cores ⇒ util 1.0).
func seedHotHost(t *testing.T, c *Controller) {
	t.Helper()
	for v := 0; v < 6; v++ {
		if err := c.PlaceAt("r0-h0", HeavyVMSpec(fmt.Sprintf("hot-%02d", v), 4, 8)); err != nil {
			t.Fatalf("seeding: %v", err)
		}
	}
}

// TestClosedLoopPredictsHotspotAheadOfMeasurement is the tentpole scenario:
// a 2-rack/8-host fleet with one overloaded machine. The control plane must
// flag the machine as a hotspot from its *predicted* Δ_gap-ahead
// temperature strictly before the measured die temperature crosses the
// threshold — the proactive window the paper's prediction exists to create.
func TestClosedLoopPredictsHotspotAheadOfMeasurement(t *testing.T) {
	cfg := testConfig()
	c, err := New(cfg, syntheticStable)
	if err != nil {
		t.Fatal(err)
	}
	seedHotHost(t, c)

	const hot = "r0-h0"
	flaggedRound := 0     // first round the hotspot map names the hot host
	measuredAtFlag := 0.0 // true die temp when first flagged
	crossedRound := 0     // first round the *measured* temp exceeds threshold
	for round := 1; round <= 80; round++ {
		rep, err := c.RunRound()
		if err != nil {
			t.Fatal(err)
		}
		die, err := c.MeasuredDieTemp(hot)
		if err != nil {
			t.Fatal(err)
		}
		if crossedRound == 0 && die > cfg.ThresholdC {
			crossedRound = round
		}
		snap := snapshotOf(c)
		if flaggedRound == 0 {
			for _, h := range snap.Hotspots {
				if h.HostID == hot {
					flaggedRound = round
					measuredAtFlag = die
					if h.MarginC <= 0 {
						t.Errorf("flagged hotspot has non-positive margin %v", h.MarginC)
					}
					if h.UncertaintyC <= 0 {
						t.Errorf("hotspot missing uncertainty")
					}
				}
			}
		}
		if rep.Hosts != 16 {
			t.Fatalf("round %d saw %d hosts, want 16", round, rep.Hosts)
		}
		if flaggedRound != 0 && crossedRound != 0 {
			break
		}
	}
	if flaggedRound == 0 {
		t.Fatal("hot host was never flagged from predicted temperature")
	}
	if crossedRound == 0 {
		t.Fatal("measured temperature never crossed the threshold (scenario broken)")
	}
	if flaggedRound >= crossedRound {
		t.Fatalf("hotspot flagged at round %d, not ahead of measured crossing at round %d",
			flaggedRound, crossedRound)
	}
	if measuredAtFlag > cfg.ThresholdC {
		t.Fatalf("at flag time measured temp %.2f already above threshold %.2f",
			measuredAtFlag, cfg.ThresholdC)
	}
	t.Logf("flagged at round %d (measured %.1f °C), measured crossed at round %d",
		flaggedRound, measuredAtFlag, crossedRound)

	// The cool hosts must never appear in the map.
	snap := snapshotOf(c)
	for _, h := range snap.Hotspots {
		if h.HostID != "r0-h0" {
			t.Errorf("unexpected hotspot %q", h.HostID)
		}
	}
	// Thermal-aware placement must route a new VM away from the hotspot.
	dec, err := placeOne(c, HeavyVMSpec("newcomer", 2, 4))
	if err != nil {
		t.Fatal(err)
	}
	if dec.Status != Placed {
		t.Fatalf("placement %s (%s): %s", dec.Status, dec.Code, dec.Reason)
	}
	if dec.HostID == hot {
		t.Fatalf("thermal-aware placement chose the hotspot %q", dec.HostID)
	}
	// A retried request with the same VM id must be rejected, not doubled.
	dup, err := placeOne(c, HeavyVMSpec("newcomer", 2, 4))
	if err != nil {
		t.Fatal(err)
	}
	if dup.Status != Rejected || dup.Code != RejectDuplicateID {
		t.Fatalf("duplicate VM id accepted: %+v", dup)
	}
}

// TestReconciliationMigratesOffHotspot verifies the proposal→reconcile path:
// with migrations enabled, the controller proposes moving the hotspot's
// largest VM and applies the move on a subsequent round.
func TestReconciliationMigratesOffHotspot(t *testing.T) {
	cfg := testConfig()
	cfg.MaxMigrationsPerRound = 1
	c, err := New(cfg, syntheticStable)
	if err != nil {
		t.Fatal(err)
	}
	seedHotHost(t, c)

	proposed, applied := 0, 0
	for round := 1; round <= 40 && applied == 0; round++ {
		rep, err := c.RunRound()
		if err != nil {
			t.Fatal(err)
		}
		proposed += rep.ProposedMoves
		applied += rep.AppliedMoves
	}
	if proposed == 0 {
		t.Fatal("no migration was ever proposed for the hotspot")
	}
	if applied == 0 {
		t.Fatal("no proposed migration was ever reconciled")
	}
}

// TestDeterministicRounds: the same seed and scenario must reproduce the
// same snapshots — map-order nondeterminism anywhere in the loop would
// surface here.
func TestDeterministicRounds(t *testing.T) {
	run := func() Snapshot {
		c, err := New(testConfig(), syntheticStable)
		if err != nil {
			t.Fatal(err)
		}
		seedHotHost(t, c)
		if _, err := c.Run(12); err != nil {
			t.Fatal(err)
		}
		return snapshotOf(c)
	}
	a, b := run(), run()
	if len(a.Hotspots) != len(b.Hotspots) {
		t.Fatalf("hotspot counts differ: %d vs %d", len(a.Hotspots), len(b.Hotspots))
	}
	for i := range a.Hotspots {
		if a.Hotspots[i] != b.Hotspots[i] {
			t.Fatalf("hotspot %d differs: %+v vs %+v", i, a.Hotspots[i], b.Hotspots[i])
		}
	}
	for id, v := range a.Predicted {
		if w, ok := b.Predicted[id]; !ok || math.Abs(v-w) > 1e-12 {
			t.Fatalf("prediction for %s differs: %v vs %v", id, v, w)
		}
	}
}

// TestStaleTelemetryDegradesGracefully: a host whose telemetry stops must be
// reported stale and excluded from the hotspot map instead of poisoning it.
func TestStaleTelemetryDegradesGracefully(t *testing.T) {
	cfg := testConfig()
	c, err := New(cfg, syntheticStable)
	if err != nil {
		t.Fatal(err)
	}
	seedHotHost(t, c)
	if _, err := c.Run(3); err != nil {
		t.Fatal(err)
	}
	// The hot host's monitoring agent dies; its machine keeps heating.
	if err := c.SetTelemetryMuted("r0-h0", true); err != nil {
		t.Fatal(err)
	}
	// StaleAfterS is 45 s = 3 rounds; run enough rounds to cross it.
	rounds, err := c.Run(5)
	if err != nil {
		t.Fatal(err)
	}
	last := rounds[len(rounds)-1]
	if last.StaleHosts == 0 {
		t.Fatal("round report shows no stale hosts")
	}
	if last.MaxStalenessS <= cfg.StaleAfterS {
		t.Fatalf("max staleness %v not beyond stale-after %v", last.MaxStalenessS, cfg.StaleAfterS)
	}
	snap := snapshotOf(c)
	foundStale := false
	for _, id := range snap.StaleHosts {
		if id == "r0-h0" {
			foundStale = true
		}
	}
	if !foundStale {
		t.Fatalf("hot host with frozen telemetry not reported stale (stale=%v)", snap.StaleHosts)
	}
	for _, h := range snap.Hotspots {
		if h.HostID == "r0-h0" {
			t.Fatal("stale host must be excluded from the hotspot map")
		}
	}
	if _, ok := snap.Predicted["r0-h0"]; ok {
		t.Fatal("stale host must not publish a prediction")
	}
}

// TestConcurrentIngestDuringRounds drives prediction rounds while external
// producers hammer the telemetry pipeline and readers poll the snapshot —
// the -race proof for the ingest path.
func TestConcurrentIngestDuringRounds(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Racks = 1
	cfg.HostsPerRack = 4
	cfg.ThresholdC = 70
	cfg.Seed = 3
	cfg.IngestBuffer = 64 // small enough that drops actually happen
	c, err := New(cfg, syntheticStable)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.PlaceAt("r0-h0", HeavyVMSpec("w", 4, 8)); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			i := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				c.Ingest(Reading{
					HostID: fmt.Sprintf("r0-h%d", i%4),
					AtS:    float64(i),
					TempC:  40 + float64(i%20),
					Util:   0.5,
				})
				c.ViewSnapshot(func(*Snapshot) {})
				if i%17 == 0 {
					c.Submit(HeavyVMSpec(fmt.Sprintf("g%d-v%d", g, i), 1, 2))
				}
				i++
			}
		}(g)
	}
	for round := 0; round < 8; round++ {
		if _, err := c.RunRound(); err != nil {
			close(stop)
			wg.Wait()
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	rec, dropped, superseded := c.ingest.stats()
	if rec == 0 {
		t.Fatal("pipeline recorded no receipts")
	}
	// The simulator samples every host 3× per round (SampleS=5, Δ_update=15)
	// on top of the external producers, so most drained readings never
	// become a host's latest: the superseded counter must make that ingest
	// pressure visible instead of silently discarding it.
	if superseded == 0 {
		t.Fatal("no superseded readings counted despite producers outpacing the loop")
	}
	t.Logf("ingested %d readings, dropped %d, superseded %d", rec, dropped, superseded)
}
