package scenario

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"vmtherm/internal/fleet"
)

// testFleet builds a small simulated fleet with the synthetic stable
// predictor — the same stand-in the fleet's own closed-loop tests use.
func testFleet(t *testing.T, mutate func(*fleet.Config)) *fleet.Controller {
	t.Helper()
	cfg := fleet.DefaultConfig()
	cfg.Racks = 2
	cfg.HostsPerRack = 8
	cfg.Seed = 7
	if mutate != nil {
		mutate(&cfg)
	}
	c, err := fleet.New(cfg, fleet.SyntheticStablePredictor(75))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func runBuiltin(t *testing.T, name string, mutate func(*fleet.Config)) Report {
	t.Helper()
	spec, ok := Builtin(name)
	if !ok {
		t.Fatalf("no builtin %q", name)
	}
	r, err := New(spec, testFleet(t, mutate))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Passed {
		t.Fatalf("%s failed its grade: %v\nreport: %s", name, rep.Failures, rep.JSON())
	}
	return rep
}

// TestCRACFailureLeadAndContainment is the acceptance bar from the issue:
// under a full CRAC failure the predicted hotspot flag must strictly
// precede the measured threshold crossing, and once cooling is restored
// the controller must clear the hotspot set within the documented budget.
func TestCRACFailureLeadAndContainment(t *testing.T) {
	rep := runBuiltin(t, "crac-failure", nil)
	if rep.FirstFlagRound == 0 || rep.MeasuredCrossRound == 0 {
		t.Fatalf("emergency never materialized: %s", rep.JSON())
	}
	if rep.PredictedLeadRounds < 1 {
		t.Fatalf("no proactive window: flagged %d, crossed %d",
			rep.FirstFlagRound, rep.MeasuredCrossRound)
	}
	if !rep.Contained || rep.ContainmentRounds > 40 {
		t.Fatalf("not contained within budget: %s", rep.JSON())
	}
	if rep.PeakMeasuredC <= 65 {
		t.Fatalf("peak measured %.1f never exceeded the threshold", rep.PeakMeasuredC)
	}
}

func TestSetpointExcursionContains(t *testing.T) {
	rep := runBuiltin(t, "setpoint-excursion", nil)
	if rep.PeakHotspots == 0 {
		t.Fatalf("excursion raised no hotspot: %s", rep.JSON())
	}
}

func TestRecircSpikeContains(t *testing.T) {
	rep := runBuiltin(t, "recirc-spike", nil)
	if rep.PeakHotspots == 0 {
		t.Fatalf("breach raised no hotspot: %s", rep.JSON())
	}
}

// TestLoadSurgeSpendsBoundedMigrations: the surge saturates a whole rack;
// the controller may fight back only within its per-round budget.
func TestLoadSurgeSpendsBoundedMigrations(t *testing.T) {
	rep := runBuiltin(t, "load-surge", nil)
	if rep.PeakHotspots == 0 {
		t.Fatal("surge raised no hotspot")
	}
	if rep.MigrationsApplied == 0 {
		t.Error("controller never spent a migration on the surge")
	}
	if rep.MigrationsApplied > rep.MigrationBudget {
		t.Errorf("migrations %d exceed budget %d", rep.MigrationsApplied, rep.MigrationBudget)
	}
}

// TestTelemetryBlackoutReconverges: six dark rounds degrade the whole
// fleet to stale; once the feed returns every host must be re-fed.
func TestTelemetryBlackoutReconverges(t *testing.T) {
	rep := runBuiltin(t, "telemetry-blackout", nil)
	if rep.MaxStaleHosts == 0 {
		t.Fatal("blackout never degraded anyone")
	}
	if !rep.Reconverged || rep.ReconvergeRound == 0 {
		t.Fatalf("fleet did not reconverge: %s", rep.JSON())
	}
}

// TestSensorChaosRejectsPoison: NaN and wildly-biased sensors must be
// rejected by the ingest plausibility filter, never ingested.
func TestSensorChaosRejectsPoison(t *testing.T) {
	rep := runBuiltin(t, "sensor-chaos", nil)
	if rep.ReadingsRejected == 0 {
		t.Fatal("no poisoned reading was rejected")
	}
	if rep.PeakHotspots != 0 {
		t.Errorf("sensor faults alone raised %d hotspots", rep.PeakHotspots)
	}
}

// TestRunnerStatusProgression exercises the live Status surface a server
// polls while a scenario runs.
func TestRunnerStatusProgression(t *testing.T) {
	spec, _ := Builtin("crac-failure")
	r, err := New(spec, testFleet(t, nil))
	if err != nil {
		t.Fatal(err)
	}
	st := r.Status()
	if st.Name != "crac-failure" || !st.Active || st.Round != 0 || st.FaultsActive != 0 {
		t.Fatalf("fresh status = %+v", st)
	}
	for i := 0; i < 6; i++ { // through the capacity-0 event at round 6
		if _, err := r.Step(); err != nil {
			t.Fatal(err)
		}
	}
	st = r.Status()
	if st.Round != 6 || st.FaultsActive != 1 {
		t.Fatalf("mid-fault status = %+v", st)
	}
	if !st.CRAC.Active || st.CRAC.CapacityFrac != 0 {
		t.Fatalf("CRAC status not reflecting failure: %+v", st.CRAC)
	}
	for !r.Done() {
		if _, err := r.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := r.Step(); err == nil {
		t.Fatal("stepping past the timeline did not error")
	}
	st = r.Status()
	if st.Active || !st.Done || st.FaultsActive != 0 {
		t.Fatalf("final status = %+v", st)
	}
}

// TestSpecValidation rejects malformed timelines.
func TestSpecValidation(t *testing.T) {
	bad := []Spec{
		{Rounds: 10},
		{Name: "x", Rounds: 0},
		{Name: "x", Rounds: 10, Events: []Event{{Round: 11, Fault: FaultBlackout}}},
		{Name: "x", Rounds: 10, Events: []Event{{Round: 1, Fault: "meteor"}}},
		{Name: "x", Rounds: 10, Events: []Event{{Round: 1, Fault: FaultSensor}}},
		{Name: "x", Rounds: 10, Events: []Event{{Round: 1, Fault: FaultSensor, Host: "h", Mode: "wrong"}}},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad spec %d accepted", i)
		}
	}
	for _, name := range BuiltinNames() {
		s, ok := Builtin(name)
		if !ok {
			t.Fatalf("listed builtin %q missing", name)
		}
		if err := s.Validate(); err != nil {
			t.Errorf("builtin %s invalid: %v", name, err)
		}
	}
	if len(BuiltinNames()) < 5 {
		t.Fatalf("only %d builtins, want >= 5", len(BuiltinNames()))
	}
}

// TestLoadFromFile round-trips a spec through JSON on disk and runs it.
func TestLoadFromFile(t *testing.T) {
	spec, _ := Builtin("telemetry-blackout")
	data, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "blackout.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != spec.Name || len(got.Events) != len(spec.Events) {
		t.Fatalf("loaded spec = %+v", got)
	}
	// Builtin names resolve before paths.
	if s, err := Load("crac-failure"); err != nil || s.Name != "crac-failure" {
		t.Fatalf("builtin load: %v %+v", err, s)
	}
	if _, err := Load("no-such-scenario-or-file"); err == nil {
		t.Fatal("bogus name accepted")
	}
	if _, err := FromJSON([]byte(`{"name":"x","rounds":0}`)); err == nil {
		t.Fatal("invalid spec accepted from JSON")
	}
}

// TestScenarioDeterministic: the same spec on the same seed produces the
// same report — the property CI leans on.
func TestScenarioDeterministic(t *testing.T) {
	run := func() Report {
		spec, _ := Builtin("crac-failure")
		r, err := New(spec, testFleet(t, nil))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := r.Run()
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(), run()
	if string(a.JSON()) != string(b.JSON()) {
		t.Fatalf("reports differ:\n%s\nvs\n%s", a.JSON(), b.JSON())
	}
}

// runBounded binds spec to a fresh 1×4 fleet and runs at most three steps.
// Whatever the spec, that errors or returns.
func runBounded(t *testing.T, spec Spec) error {
	r, err := New(spec, testFleet(t, func(c *fleet.Config) { c.Racks, c.HostsPerRack = 1, 4 }))
	if err != nil {
		return err
	}
	for i := 0; i < 3 && !r.Done(); i++ {
		if _, err := r.Step(); err != nil {
			return err
		}
	}
	return nil
}

// TestImpossibleHeavyVMFailsFast: a load surge or baseline asking for more
// vCPUs than a host has fails before fleet.HeavyVMSpec builds a task per
// vCPU. At 2e9 vCPUs that used to take the process down.
func TestImpossibleHeavyVMFailsFast(t *testing.T) {
	for _, spec := range []Spec{
		{Name: "surge", Rounds: 3, Events: []Event{{Round: 1, Fault: FaultLoadSurge, Value: 2e9}}},
		{Name: "baseline", Rounds: 3, Baseline: Baseline{VMsPerHost: 1, VCPUs: 2_000_000_000, MemGB: 1}},
	} {
		start := time.Now()
		err := runBounded(t, spec)
		if took := time.Since(start); err == nil || !strings.Contains(err.Error(), "can never fit") || took > 100*time.Millisecond {
			t.Errorf("%s: %v after %v, want a shape error within 100ms", spec.Name, err, took)
		}
	}
}

// FuzzScenarioSpec: whatever the bytes, FromJSON either refuses them or
// yields a spec that, bound to a 1×4 fleet, runs three steps to an error or
// a result — no panic, no spin, no allocation its numbers scale.
func FuzzScenarioSpec(f *testing.F) {
	for _, name := range BuiltinNames() {
		spec, _ := Builtin(name)
		raw, err := json.Marshal(spec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	for _, seed := range []string{
		`{"name":"surge","rounds":3,"events":[{"round":1,"fault":"load-surge","value":2e9}]}`,
		`{"name":"surge","rounds":3,"events":[{"round":1,"fault":"load-surge","value":6,"count":1000000000}]}`,
		`{"name":"base","rounds":3,"baseline":{"vms_per_host":1000000000,"vcpus":1,"mem_gb":1e-300}}`,
		`{"name":"base","rounds":3,"baseline":{"vms_per_host":1,"vcpus":2000000000}}`,
		`{"name":"crac","rounds":3,"events":[{"round":1,"fault":"crac-setpoint","value":1e308},{"round":2,"fault":"crac-capacity","value":-1e308}]}`,
		`{"name":"sensor","rounds":3,"events":[{"round":1,"fault":"sensor","host":"r0-h0","mode":"stuck","value":-1e308}]}`,
		`{"name":"end","rounds":3,"events":[{"round":1,"fault":"load-surge-end","rack":7}]}`,
		`{"name":"x","rounds":1000000000000,"events":[]}`, `{"name":""}`, `{}`, `[]`, ``,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := FromJSON(data)
		if err != nil {
			return
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_ = runBounded(t, spec)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<20 {
			t.Fatalf("spec %s: %d MiB for three steps on four hosts", data, grew>>20)
		}
	})
}
