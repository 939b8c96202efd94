package fleet

import (
	"errors"
	"fmt"
	"testing"

	"vmtherm/internal/telemetry"
	"vmtherm/internal/workload"
)

// failOnce wraps a predictor with a single injected failure: the first call
// for which trip reports true returns errInjected instead of predicting.
type failOnce struct {
	armed bool
	trip  func([]workload.Case) bool
}

var errInjected = errors.New("injected predictor failure")

func (f *failOnce) predict(cases []workload.Case) ([]float64, error) {
	if f.armed && f.trip(cases) {
		f.armed = false
		return nil, errInjected
	}
	return syntheticStable(cases)
}

// TestStageErrorLeavesControllerConsistent pins the early-return contract of
// the stage pipeline on a source-driven fleet: a predictor failure inside
// resolveAnchors fails the round without moving the round counter or the
// published snapshot, the readings drained before the failure stay in the
// controller, and the next round covers the full population with every host
// anchored.
func TestStageErrorLeavesControllerConsistent(t *testing.T) {
	readings := loadTwinTrace(t)
	src, err := telemetry.NewTraceSource(readings, telemetry.TraceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fail := &failOnce{trip: func([]workload.Case) bool { return true }}
	ctl, err := NewWithSource(traceConfig(), src, fail.predict)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := ctl.Run(3)
	if err != nil {
		t.Fatal(err)
	}
	before := warm[len(warm)-1]
	var snapBefore Snapshot
	ctl.ViewSnapshot(func(s *Snapshot) { snapBefore = *s })

	// A cold cache forces every host through the predictor, which fails.
	ctl.InvalidateAnchorCache()
	fail.armed = true
	if _, err := ctl.RunRound(); !errors.Is(err, errInjected) {
		t.Fatalf("RunRound error = %v, want the injected failure", err)
	}
	ctl.ViewSnapshot(func(s *Snapshot) {
		if s.Round != before.Round || s.SimTimeS != snapBefore.SimTimeS {
			t.Errorf("failed round published: snapshot round %d t=%v, want round %d t=%v",
				s.Round, s.SimTimeS, before.Round, snapBefore.SimTimeS)
		}
	})
	latest := tableReadings(ctl)
	if got := len(latest); got != before.Hosts {
		t.Errorf("drained readings lost: %d hosts in latest, want %d", got, before.Hosts)
	}
	for id, r := range latest {
		if r.AtS <= snapBefore.Latest[id].AtS {
			t.Errorf("host %s: the failed round's drained reading (t=%v) did not survive (published t=%v)",
				id, r.AtS, snapBefore.Latest[id].AtS)
		}
	}

	rep, err := ctl.RunRound()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Round != before.Round+1 {
		t.Errorf("round after the failure = %d, want %d (the failed round must not count)", rep.Round, before.Round+1)
	}
	if rep.Hosts != before.Hosts || rep.SessionsLive != before.Hosts || rep.StaleHosts != 0 {
		t.Errorf("round after the failure: hosts %d sessions %d stale %d, want the full population of %d live",
			rep.Hosts, rep.SessionsLive, rep.StaleHosts, before.Hosts)
	}
	if rep.AnchorFailures != 0 || rep.AnchorHits+rep.AnchorMisses != before.Hosts {
		t.Errorf("round after the failure: %d anchor failures, %d+%d anchored of %d hosts",
			rep.AnchorFailures, rep.AnchorHits, rep.AnchorMisses, before.Hosts)
	}
}

// TestFailedDrainReparksQueue: a transient predictor failure in the middle
// of the round's placement drain must not lose queued requests. The failing
// round returns the error; the next round decides every request that had not
// landed yet, exactly once — whether the failure came after an earlier wave
// had placed a VM, or after the admission cap had already re-parked the
// rest of the queue.
func TestFailedDrainReparksQueue(t *testing.T) {
	const queued = 5
	for _, tc := range []struct {
		name             string
		perRoundCap      int
		tripOn           string // the queued VM whose candidate prediction fails
		landed           int    // VMs the failing drain had placed before failing
		placed, requeued int    // the next round's decisions
	}{
		// On this 16-host fleet every request's candidate window spans all
		// hosts, so an uncapped drain runs one wave per request: q-1's wave
		// fails after q-0 has landed.
		{name: "mid-drain", tripOn: "q-1", landed: 1, placed: queued - 1},
		// With a cap of one the first wave stages q-0 and parkOrReject parks
		// q-1..q-4 before the prediction for q-0 fails.
		{name: "after-cap-parking", perRoundCap: 1, tripOn: "q-0", placed: 1, requeued: queued - 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Only the drain's post-placement candidate cases carry a queued VM.
			fail := &failOnce{trip: func(cases []workload.Case) bool {
				for _, c := range cases {
					for _, vm := range c.VMs {
						if vm.ID == tc.tripOn {
							return true
						}
					}
				}
				return false
			}}
			cfg := testConfig()
			cfg.Admission.MaxPlacementsPerRound = tc.perRoundCap
			c, err := New(cfg, fail.predict)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := c.Run(2); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < queued; i++ {
				if !c.Submit(HeavyVMSpec(fmt.Sprintf("q-%d", i), 1, 2)) {
					t.Fatalf("submit q-%d refused", i)
				}
			}
			fail.armed = true
			if _, err := c.RunRound(); !errors.Is(err, errInjected) {
				t.Fatalf("RunRound error = %v, want the injected failure", err)
			}
			if len(c.sim.vmHost) != tc.landed {
				t.Fatalf("failed drain left %v placed, want %d VMs", c.sim.vmHost, tc.landed)
			}
			rep, err := c.RunRound()
			if err != nil {
				t.Fatal(err)
			}
			if rep.Placements != tc.placed || rep.Queued != tc.requeued || rep.Rejections != 0 {
				t.Fatalf("round after the failed drain: placed %d queued %d rejected %d, want %d placed %d queued",
					rep.Placements, rep.Queued, rep.Rejections, tc.placed, tc.requeued)
			}
			for rep.Queued > 0 {
				if rep, err = c.RunRound(); err != nil {
					t.Fatal(err)
				}
			}
			if len(c.sim.vmHost) != queued {
				t.Fatalf("placed %v, want each of the %d queued VMs exactly once", c.sim.vmHost, queued)
			}
			if rep, err = c.RunRound(); err != nil || rep.Placements+rep.Queued+rep.Rejections != 0 {
				t.Fatalf("a re-parked request was queued twice: next round %+v, err %v", rep, err)
			}
		})
	}
}
