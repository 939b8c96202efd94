package fleet

import (
	"math"
	"sync"
	"testing"

	"vmtherm/internal/telemetry"
)

// TestBlackoutRecoveryUnderConcurrentStreaming rides out a fleet-wide
// telemetry blackout while an event-driven pusher keeps hammering
// IngestBatch from another goroutine — the shape a real outage has, where
// the scrape plane goes dark but application-side pushers keep arriving.
// Under -race this pins: no data race between the dark rounds and the
// streaming path, staleness widens while dark, and every stale host is
// cleared within a bounded number of rounds after the sweep resumes.
func TestBlackoutRecoveryUnderConcurrentStreaming(t *testing.T) {
	c, err := New(testConfig(), syntheticStable)
	if err != nil {
		t.Fatal(err)
	}
	seedHotHost(t, c)
	warm, err := runRounds(c, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Freeze the pusher's clock at the last pre-blackout sweep: lastAtS is
	// monotonic in the engine, so these duplicates can neither rewind
	// staleness nor fake freshness — they only exercise the arrival path.
	atS := warm[len(warm)-1].SimTimeS

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		readings := make([]Reading, 4)
		results := make([]IngestResult, 4)
		// Body-first loop: at least one batch lands even if the main
		// goroutine races through its rounds before this one is scheduled.
		for i := 0; ; i++ {
			readings[0] = Reading{HostID: "r0-h0", AtS: atS, TempC: 40 + float64(i%7), Util: 0.6, MemFrac: 0.3}
			readings[1] = Reading{HostID: "r1-h3", AtS: atS, TempC: 38, Util: 0.4, MemFrac: 0.2}
			readings[2] = Reading{HostID: "r0-h1", AtS: atS, TempC: math.NaN()}
			readings[3] = Reading{HostID: "r1-h5", AtS: atS, TempC: 400}
			c.IngestBatch(readings, true, results)
			for j := 2; j < 4; j++ {
				if results[j].Outcome != IngestRejected {
					t.Errorf("poison reading %d outcome %v, want IngestRejected", j, results[j].Outcome)
					return
				}
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}()

	// Lights out. staleAfterS is 3 rounds; 6 dark rounds put every host
	// well past it.
	if err := setTelemetryDark(c, true); err != nil {
		t.Fatal(err)
	}
	var lastDark RoundReport
	for i := 0; i < 6; i++ {
		lastDark, err = c.RunRound()
		if err != nil {
			t.Fatal(err)
		}
	}
	if lastDark.StaleHosts == 0 {
		t.Fatal("blackout did not widen staleness")
	}
	if lastDark.MaxStalenessS <= staleAfterS {
		t.Fatalf("max staleness %v not beyond stale-after %v", lastDark.MaxStalenessS, staleAfterS)
	}

	// Sweep resumes; every stale host must clear within a few rounds (one
	// sweep refreshes all hosts, plus slack for the staleness horizon).
	if err := setTelemetryDark(c, false); err != nil {
		t.Fatal(err)
	}
	cleared := 0
	for i := 1; i <= 6; i++ {
		rep, err := c.RunRound()
		if err != nil {
			t.Fatal(err)
		}
		if rep.StaleHosts == 0 {
			cleared = i
			break
		}
	}
	if cleared == 0 {
		t.Fatal("stale hosts not cleared within 6 rounds after the blackout ended")
	}
	t.Logf("dark staleness peaked at %d hosts (%.0f s); cleared %d rounds after resume",
		lastDark.StaleHosts, lastDark.MaxStalenessS, cleared)

	close(stop)
	wg.Wait()

	// The concurrent poison must have been counted, not crashed on.
	byReason, total := c.IngestRejected()
	if total == 0 {
		t.Fatal("concurrent poison readings were never rejected")
	}
	if byReason[telemetry.RejectNaN] == 0 || byReason[telemetry.RejectTooHot] == 0 {
		t.Fatalf("rejection reasons not tallied: %v", byReason)
	}
}

// TestIngestBatchRejectsImplausible pins the typed per-reading outcome and
// the per-reason counters for every implausibility class.
func TestIngestBatchRejectsImplausible(t *testing.T) {
	c, err := New(testConfig(), syntheticStable)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runRounds(c, 1); err != nil {
		t.Fatal(err)
	}
	readings := []Reading{
		{HostID: "r0-h0", AtS: 15, TempC: math.NaN()},
		{HostID: "r0-h1", AtS: 15, TempC: math.Inf(1)},
		{HostID: "r0-h2", AtS: 15, TempC: -200},
		{HostID: "r0-h3", AtS: 15, TempC: 400},
		{HostID: "r0-h4", AtS: 15, TempC: 42, Util: 0.3, MemFrac: 0.2},
	}
	results := make([]IngestResult, len(readings))
	accepted := c.IngestBatch(readings, false, results)
	if accepted != 1 {
		t.Fatalf("accepted %d, want 1 (only the plausible reading)", accepted)
	}
	for i := 0; i < 4; i++ {
		if results[i].Outcome != IngestRejected {
			t.Errorf("reading %d outcome %v, want IngestRejected", i, results[i].Outcome)
		}
	}
	if results[4].Outcome == IngestRejected {
		t.Error("plausible reading was rejected")
	}
	byReason, total := c.IngestRejected()
	if total != 4 {
		t.Fatalf("rejected total %d, want 4", total)
	}
	for _, want := range []telemetry.RejectReason{
		telemetry.RejectNaN, telemetry.RejectInf, telemetry.RejectTooCold, telemetry.RejectTooHot,
	} {
		if byReason[want] != 1 {
			t.Errorf("reason %s count %d, want 1", want, byReason[want])
		}
	}
}
