package fleet

import (
	"fmt"
	"sync"
	"testing"

	"vmtherm/internal/workload"
)

// tinyConfig is a 1-rack/2-host fleet: small enough that a handful of
// heavy VMs exhausts its thermal headroom deterministically.
func tinyConfig() Config {
	cfg := DefaultConfig()
	cfg.Racks = 1
	cfg.HostsPerRack = 2
	cfg.ThresholdC = 70
	cfg.MaxMigrationsPerRound = 0
	cfg.Seed = 11
	return cfg
}

// placeOne places a single VM through the batch engine — the shape
// POST /v1/fleet/place uses.
func placeOne(c *Controller, spec workload.VMSpec) (PlacementDecision, error) {
	decs, err := c.PlaceBatch([]workload.VMSpec{spec})
	if err != nil {
		return PlacementDecision{}, err
	}
	return decs[0], nil
}

// TestBatchHeadroomExhaustionDeterministic: with a headroom budget and
// queueing disabled, a batch of identical heavy VMs must split into a
// placed prefix and a RejectNoHeadroom tail — the batch prices the headroom
// each predecessor consumed — and the split must be identical run to run.
func TestBatchHeadroomExhaustionDeterministic(t *testing.T) {
	run := func() []PlacementDecision {
		cfg := tinyConfig()
		cfg.Admission = AdmissionPolicy{HeadroomBudgetC: 20, MaxQueueDepth: -1}
		c, err := New(cfg, syntheticStable)
		if err != nil {
			t.Fatal(err)
		}
		specs := make([]workload.VMSpec, 5)
		for i := range specs {
			specs[i] = HeavyVMSpec(fmt.Sprintf("vm-%d", i), 4, 8)
		}
		decs, err := c.PlaceBatch(specs)
		if err != nil {
			t.Fatal(err)
		}

		// Sequential single-VM calls share the batch's plan: the next
		// request must see the headroom the batch consumed, not a fresh
		// ranking that would re-admit it.
		one, err := placeOne(c, HeavyVMSpec("vm-after", 4, 8))
		if err != nil {
			t.Fatal(err)
		}
		if one.Status != Rejected || one.Code != RejectNoHeadroom {
			t.Fatalf("single placement after exhausted batch = %+v, want no-headroom", one)
		}
		return decs
	}

	decs := run()
	placed := 0
	for placed < len(decs) && decs[placed].Status == Placed {
		if margin := 70 - decs[placed].PredictedStableC; margin < 20 {
			t.Fatalf("placed %s leaves %.2f°C headroom, budget is 20", decs[placed].VMID, margin)
		}
		placed++
	}
	if placed == 0 || placed == len(decs) {
		t.Fatalf("batch did not split into placed prefix + rejected tail: %+v", decs)
	}
	for _, d := range decs[placed:] {
		if d.Status != Rejected || d.Code != RejectNoHeadroom {
			t.Fatalf("tail decision %+v, want Rejected{no-headroom}", d)
		}
		if d.Reason == "" {
			t.Fatalf("rejection without reason: %+v", d)
		}
	}

	if again := run(); fmt.Sprint(again) != fmt.Sprint(decs) {
		t.Fatalf("two identical runs diverged:\n%v\n%v", decs, again)
	}
}

// TestBatchResultOrderAndTypedCodes: decisions come back in input order,
// one per spec, and every rejection carries the matching typed code —
// including an in-batch duplicate id, which only the earlier occurrence
// may win.
func TestBatchResultOrderAndTypedCodes(t *testing.T) {
	c, err := New(testConfig(), syntheticStable)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.PlaceAt("r0-h0", HeavyVMSpec("resident", 2, 4)); err != nil {
		t.Fatal(err)
	}
	decs, err := c.PlaceBatch([]workload.VMSpec{
		HeavyVMSpec("a", 2, 4),
		HeavyVMSpec("big", 4096, 4096),
		HeavyVMSpec("resident", 1, 2),
		HeavyVMSpec("b", 2, 4),
		HeavyVMSpec("a", 1, 2),
	})
	if err != nil {
		t.Fatal(err)
	}
	wantIDs := []string{"a", "big", "resident", "b", "a"}
	wantStatus := []PlaceStatus{Placed, Rejected, Rejected, Placed, Rejected}
	wantCode := []RejectCode{RejectNone, RejectInfeasible, RejectDuplicateID, RejectNone, RejectDuplicateID}
	if len(decs) != len(wantIDs) {
		t.Fatalf("got %d decisions, want %d", len(decs), len(wantIDs))
	}
	for i, d := range decs {
		if d.VMID != wantIDs[i] || d.Status != wantStatus[i] || d.Code != wantCode[i] {
			t.Fatalf("decision %d = %+v, want id=%s status=%s code=%s",
				i, d, wantIDs[i], wantStatus[i], wantCode[i])
		}
		if d.Status == Rejected && d.Reason == "" {
			t.Fatalf("decision %d rejected without reason: %+v", i, d)
		}
		if d.Status == Placed && d.HostID == "" {
			t.Fatalf("decision %d placed without host: %+v", i, d)
		}
	}
	if decs[0].HostID == decs[3].HostID {
		t.Fatalf("batch stacked both VMs on %q instead of spreading headroom", decs[0].HostID)
	}
}

// TestPerRoundCapQueuesOverflow: the per-round placement cap parks the
// overflow on the pending queue, and each subsequent round's drain places
// another cap's worth until the queue empties.
func TestPerRoundCapQueuesOverflow(t *testing.T) {
	cfg := testConfig()
	cfg.Admission = AdmissionPolicy{MaxPlacementsPerRound: 1}
	c, err := New(cfg, syntheticStable)
	if err != nil {
		t.Fatal(err)
	}
	decs, err := c.PlaceBatch([]workload.VMSpec{
		HeavyVMSpec("cap-0", 1, 2),
		HeavyVMSpec("cap-1", 1, 2),
		HeavyVMSpec("cap-2", 1, 2),
	})
	if err != nil {
		t.Fatal(err)
	}
	if decs[0].Status != Placed {
		t.Fatalf("first request under cap = %+v", decs[0])
	}
	for _, d := range decs[1:] {
		if d.Status != Queued {
			t.Fatalf("over-cap request = %+v, want Queued", d)
		}
	}

	rep, err := c.RunRound()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Placements != 1 || rep.Queued != 1 || rep.Rejections != 0 {
		t.Fatalf("round 1 drain placed/queued/rejected = %d/%d/%d, want 1/1/0",
			rep.Placements, rep.Queued, rep.Rejections)
	}
	rep, err = c.RunRound()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Placements != 1 || rep.Queued != 0 {
		t.Fatalf("round 2 drain placed/queued = %d/%d, want 1/0", rep.Placements, rep.Queued)
	}
}

// TestSubmitQueueDepthBound: Submit honors the admission queue depth, and a
// depth of -1 disables queueing outright.
func TestSubmitQueueDepthBound(t *testing.T) {
	cfg := testConfig()
	cfg.Admission = AdmissionPolicy{MaxQueueDepth: 2}
	c, err := New(cfg, syntheticStable)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if !c.Submit(HeavyVMSpec(fmt.Sprintf("q-%d", i), 1, 2)) {
			t.Fatalf("submit %d refused under depth bound 2", i)
		}
	}
	if c.Submit(HeavyVMSpec("q-over", 1, 2)) {
		t.Fatal("submit beyond depth bound accepted")
	}
	// A queued request rejected at the bound must carry the typed code too.
	dec, err := placeOne(c, HeavyVMSpec("big-queue", 4096, 4096))
	if err != nil {
		t.Fatal(err)
	}
	if dec.Status != Rejected || dec.Code != RejectInfeasible {
		t.Fatalf("infeasible single placement = %+v", dec)
	}

	cfg = testConfig()
	cfg.Admission = AdmissionPolicy{MaxQueueDepth: -1}
	c, err = New(cfg, syntheticStable)
	if err != nil {
		t.Fatal(err)
	}
	if c.Submit(HeavyVMSpec("q", 1, 2)) {
		t.Fatal("submit accepted with queueing disabled")
	}
}

// TestConcurrentPlaceBatchDuringRounds hammers PlaceBatch from multiple
// goroutines while the control loop runs — the -race proof that the batch
// path, plan cache and pending queue share the controller lock correctly.
func TestConcurrentPlaceBatchDuringRounds(t *testing.T) {
	cfg := testConfig()
	c, err := New(cfg, syntheticStable)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				specs := []workload.VMSpec{
					HeavyVMSpec(fmt.Sprintf("c%d-%d-a", g, i), 1, 2),
					HeavyVMSpec(fmt.Sprintf("c%d-%d-b", g, i), 1, 2),
				}
				decs, err := c.PlaceBatch(specs)
				if err != nil {
					t.Errorf("PlaceBatch: %v", err)
					return
				}
				for _, d := range decs {
					if d.Status == PlaceInvalid {
						t.Errorf("invalid decision %+v", d)
						return
					}
				}
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
}
