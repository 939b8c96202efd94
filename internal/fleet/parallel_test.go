package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"vmtherm/internal/dataset"
	"vmtherm/internal/telemetry"
	"vmtherm/internal/workload"
)

// physRun executes a simulated fleet under the given physics worker count —
// one overloaded machine, dynamic per-task profiles so every tick does real
// load work — and returns the wall-clock-scrubbed round reports, the full
// telemetry capture as trace-CSV bytes, and the final published snapshot.
func physRun(t *testing.T, workers, rounds int) ([]RoundReport, []byte, Snapshot) {
	t.Helper()
	cfg := testConfig()
	cfg.Racks, cfg.HostsPerRack = 3, 5
	cfg.PhysWorkers = workers
	c, err := New(cfg, syntheticStable)
	if err != nil {
		t.Fatal(err)
	}
	// Heavy constant load on one host plus dynamic (sine/bursty via the
	// generator) tenants spread across racks: the tick loop must exercise
	// profile-driven SetTaskCPU on every shard.
	for v := 0; v < 4; v++ {
		if err := c.PlaceAt("r0-h0", HeavyVMSpec(fmt.Sprintf("phot-%d", v), 4, 8)); err != nil {
			t.Fatal(err)
		}
	}
	opts := workload.DefaultGenOptions()
	opts.VMCountMin, opts.VMCountMax = 8, 8
	opts.Dynamic = true
	pool, err := workload.GenerateCase(opts, 99, "phys-par")
	if err != nil {
		t.Fatal(err)
	}
	hosts := c.Hosts()
	for i, spec := range pool.VMs {
		if err := c.PlaceAt(hosts[(i*2+1)%len(hosts)], spec); err != nil {
			t.Fatal(err)
		}
	}
	var rec telemetry.Recorder
	c.TeeTelemetry(rec.Emit)
	reports, err := c.Run(rounds)
	if err != nil {
		t.Fatal(err)
	}
	c.TeeTelemetry(nil)
	for i := range reports {
		reports[i].Latency = 0
		reports[i].ControlLatency = 0
	}
	telemetry.SortReadings(rec.Readings)
	var buf bytes.Buffer
	if err := dataset.WriteTrace(&buf, rec.Readings); err != nil {
		t.Fatal(err)
	}
	return reports, buf.Bytes(), snapshotOf(c)
}

// TestParallelPhysicsValueIdentical is the tentpole determinism contract:
// rack-sharded physics must be bit-identical to the serial tick — same
// RoundReport sequence (JSON bytes), same recorded telemetry (trace CSV
// bytes), same published predictions — for any worker count, because racks
// advance independently in a fixed per-shard reduction order.
func TestParallelPhysicsValueIdentical(t *testing.T) {
	const rounds = 10
	serialReps, serialTrace, serialSnap := physRun(t, 1, rounds)
	for _, workers := range []int{2, 8} {
		reps, trace, snap := physRun(t, workers, rounds)
		sj, err := json.Marshal(serialReps)
		if err != nil {
			t.Fatal(err)
		}
		pj, err := json.Marshal(reps)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(sj, pj) {
			t.Fatalf("PhysWorkers=%d round reports diverged from serial\nserial: %s\nparallel: %s",
				workers, sj, pj)
		}
		if !bytes.Equal(serialTrace, trace) {
			t.Fatalf("PhysWorkers=%d recorded telemetry diverged from serial", workers)
		}
		if len(snap.Predicted) != len(serialSnap.Predicted) {
			t.Fatalf("PhysWorkers=%d predicted %d hosts, serial %d",
				workers, len(snap.Predicted), len(serialSnap.Predicted))
		}
		for id, v := range serialSnap.Predicted {
			if w, ok := snap.Predicted[id]; !ok || w != v {
				t.Fatalf("PhysWorkers=%d prediction for %s = %v, serial %v", workers, id, w, v)
			}
		}
	}
	// The scenario must have real thermal structure, not an idle fleet.
	hot := 0
	for _, r := range serialReps {
		hot += r.Hotspots
	}
	if hot == 0 {
		t.Fatal("scenario produced no hotspots; determinism check is vacuous")
	}
}

// TestParallelPhysicsTickErrorDeterministic: a failing rack must surface the
// same error from the sharded tick as from the serial one (first error in
// rack order), not whichever worker lost the race.
func TestParallelPhysicsTickErrorDeterministic(t *testing.T) {
	build := func(workers int) *Controller {
		cfg := testConfig()
		cfg.Racks, cfg.HostsPerRack = 3, 2
		cfg.PhysWorkers = workers
		c, err := New(cfg, syntheticStable)
		if err != nil {
			t.Fatal(err)
		}
		// Profiles returning distinct out-of-range CPU fractions make
		// SetTaskCPU fail inside the tick on two racks at once, with
		// per-rack-distinguishable messages: the reported error proves which
		// rack won.
		for i, host := range []string{"r1-h0", "r2-h0"} {
			spec := HeavyVMSpec("bad-"+host, 1, 1)
			spec.Tasks[0].Profile = badProfile{level: float64(i + 2)}
			if err := c.PlaceAt(host, spec); err != nil {
				t.Fatal(err)
			}
		}
		return c
	}
	_, serialErr := build(1).RunRound()
	if serialErr == nil {
		t.Fatal("serial tick did not surface the bad profile")
	}
	for _, workers := range []int{2, 8} {
		_, err := build(workers).RunRound()
		if err == nil {
			t.Fatalf("PhysWorkers=%d tick swallowed the error", workers)
		}
		if err.Error() != serialErr.Error() {
			t.Fatalf("PhysWorkers=%d error %q, serial %q", workers, err, serialErr)
		}
	}
}

// badProfile returns a CPU fraction outside [0,1], which SetTaskCPU rejects.
type badProfile struct{ level float64 }

func (p badProfile) At(float64) float64 { return p.level }
