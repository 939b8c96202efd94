package fleet

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"vmtherm/internal/dataset"
	"vmtherm/internal/telemetry"
)

// Regenerate the committed trace + golden report sequence with:
//
//	go test ./internal/fleet -run TestTraceReplayGolden -update-golden
var updateGolden = flag.Bool("update-golden", false, "regenerate testdata trace and golden files")

const (
	traceFile  = "testdata/trace_pr3.csv"
	goldenFile = "testdata/golden_pr3.json"
	traceSeed  = 77
)

// traceConfig is the replay-side configuration: no simulator, anchors
// synthesized from observed utilization at δ_env=22 through the synthetic
// physics predictor.
func traceConfig() Config {
	cfg := DefaultConfig()
	cfg.ThresholdC = 70
	cfg.SourceAmbientC = 22
	cfg.Seed = traceSeed
	return cfg
}

// recordTrace captures a deterministic simulated run — 2 racks × 4 hosts,
// one overloaded machine — as a replayable trace: the same closed loop that
// consumed the simulator live will consume the recording.
func recordTrace(t *testing.T, rounds int) []telemetry.Reading {
	t.Helper()
	cfg := traceConfig()
	cfg.Racks = 2
	cfg.HostsPerRack = 4
	cfg = cfg.withDefaults()
	fs, err := newFleetSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 6; v++ {
		spec := HeavyVMSpec("hot-"+string(rune('0'+v)), 4, 8)
		if err := fs.place("r0-h0", spec); err != nil {
			t.Fatal(err)
		}
	}
	var rec telemetry.Recorder
	for r := 0; r < rounds; r++ {
		if err := fs.advance(cfg.UpdateEveryS, rec.Emit); err != nil {
			t.Fatal(err)
		}
	}
	telemetry.SortReadings(rec.Readings)
	return rec.Readings
}

// replayReports runs the source-driven controller over a trace and returns
// the report sequence with wall-clock fields zeroed (everything else must
// be bit-identical run to run).
func replayReports(t *testing.T, readings []telemetry.Reading, rounds int) []RoundReport {
	t.Helper()
	src, err := telemetry.NewTraceSource(readings, telemetry.TraceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := NewWithSource(traceConfig(), src, syntheticStable)
	if err != nil {
		t.Fatal(err)
	}
	reports, err := ctl.Run(rounds)
	if err != nil {
		t.Fatal(err)
	}
	for i := range reports {
		reports[i].Latency = 0
		reports[i].ControlLatency = 0
	}
	return reports
}

// TestTraceReplayGolden is the determinism contract for the trace source:
// the same trace and seed must reproduce the exact committed RoundReport
// sequence — any nondeterminism in the replay path (map iteration, clock
// leakage, float instability) fails the diff.
func TestTraceReplayGolden(t *testing.T) {
	const rounds = 12

	if *updateGolden {
		readings := recordTrace(t, rounds)
		var buf bytes.Buffer
		if err := dataset.WriteTrace(&buf, readings); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(traceFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(traceFile, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		reports := replayReports(t, readings, rounds)
		js, err := json.MarshalIndent(reports, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenFile, append(js, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %s (%d readings) and %s", traceFile, len(readings), goldenFile)
	}

	f, err := os.Open(traceFile)
	if err != nil {
		t.Fatal(err)
	}
	readings, err := dataset.ReadTrace(f)
	_ = f.Close()
	if err != nil {
		t.Fatal(err)
	}

	got := replayReports(t, readings, rounds)
	js, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(append(js, '\n'), want) {
		t.Fatalf("replay diverged from golden (rerun with -update-golden if the change is intended)\ngot:\n%s", js)
	}

	// The replay must exercise the loop for real: sessions live, the
	// overloaded host flagged from predictions, and zero placement activity
	// (no substrate).
	last := got[len(got)-1]
	if last.SessionsLive != 8 {
		t.Fatalf("replay ended with %d live sessions, want 8", last.SessionsLive)
	}
	flagged := false
	for _, r := range got {
		if r.Hotspots > 0 {
			flagged = true
		}
		if r.Placements != 0 || r.AppliedMoves != 0 {
			t.Fatalf("source-driven replay performed placements/migrations: %+v", r)
		}
	}
	if !flagged {
		t.Fatal("replayed scenario never produced a hotspot")
	}

	// And a second replay of the same trace in-process must match, too.
	again := replayReports(t, readings, rounds)
	js2, err := json.MarshalIndent(again, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(js, js2) {
		t.Fatal("two in-process replays of the same trace diverged")
	}
}

// TestSourceDrivenControllerRejectsSubstrateOps: placement and simulator
// hooks must fail loudly, not silently no-op.
func TestSourceDrivenControllerRejectsSubstrateOps(t *testing.T) {
	src, err := telemetry.NewTraceSource(
		[]telemetry.Reading{{HostID: "h0", AtS: 0, TempC: 30}}, telemetry.TraceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := NewWithSource(traceConfig(), src, syntheticStable)
	if err != nil {
		t.Fatal(err)
	}
	if err := ctl.PlaceAt("h0", HeavyVMSpec("vm", 1, 1)); err != ErrNoSubstrate {
		t.Fatalf("PlaceAt err = %v", err)
	}
	if err := ctl.SetTelemetryMuted("h0", true); err != ErrNoSubstrate {
		t.Fatalf("SetTelemetryMuted err = %v", err)
	}
	if _, err := ctl.MeasuredDieTemp("h0"); err != ErrNoSubstrate {
		t.Fatalf("MeasuredDieTemp err = %v", err)
	}
	dec, err := placeOne(ctl, HeavyVMSpec("vm", 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if dec.Status != Rejected || dec.Code != RejectNoSubstrate {
		t.Fatalf("source-driven placement not rejected with no-substrate: %+v", dec)
	}
}
