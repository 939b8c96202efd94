package fleet

import (
	"testing"

	"vmtherm/internal/substrate"
	"vmtherm/internal/telemetry"
)

// latestOf reads one host's newest accepted reading out of the snapshot.
func latestOf(c *Controller, host string) (r Reading, ok bool) {
	c.ViewSnapshot(func(s *Snapshot) {
		r, ok = s.Latest[host]
	})
	return r, ok
}

// setSensorFault injects (or clears) one host's sensor fault.
func setSensorFault(c *Controller, host string, f substrate.SensorFault) error {
	return c.WithSubstrate(func(sub *substrate.Fleet) error { return sub.SetSensorFault(host, f) })
}

// cracStatus reads the cooling plant's state.
func cracStatus(t *testing.T, c *Controller) (st substrate.CRACStatus) {
	t.Helper()
	if err := c.WithSubstrate(func(sub *substrate.Fleet) error { st = sub.CRACStatus(); return nil }); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestSensorFaultModesCorruptOnlyEmission drives all four sensor fault
// modes on separate hosts and pins what the control plane sees: a stuck
// sensor freezes the value, dropped and NaN sensors starve the host's
// telemetry (NaN via plausibility rejection), and a biased sensor shifts
// it. Clearing the faults must restore the exact healthy reading stream —
// the reads and rng draws happen on the healthy schedule regardless, so a
// faulted-then-cleared fleet converges to byte-identical telemetry with a
// never-faulted twin.
func TestSensorFaultModesCorruptOnlyEmission(t *testing.T) {
	cfg := testConfig()
	healthy, err := New(cfg, syntheticStable)
	if err != nil {
		t.Fatal(err)
	}
	faulted, err := New(cfg, syntheticStable)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []*Controller{healthy, faulted} {
		if _, err := runRounds(c, 2); err != nil {
			t.Fatal(err)
		}
	}
	preDrop, _ := latestOf(faulted, "r0-h2")
	preNaN, _ := latestOf(faulted, "r0-h3")

	faults := map[string]substrate.SensorFault{
		"r0-h1": {Mode: substrate.SensorStuck, ValueC: 45},
		"r0-h2": {Mode: substrate.SensorDropped},
		"r0-h3": {Mode: substrate.SensorNaN},
		"r0-h4": {Mode: substrate.SensorBiased, ValueC: 30},
	}
	for host, f := range faults {
		if err := setSensorFault(faulted, host, f); err != nil {
			t.Fatal(err)
		}
	}
	if err := setSensorFault(faulted, "no-such-host", substrate.SensorFault{}); err == nil {
		t.Error("faulting an unknown host must error")
	}
	for _, c := range []*Controller{healthy, faulted} {
		if _, err := runRounds(c, 2); err != nil {
			t.Fatal(err)
		}
	}

	if r, _ := latestOf(faulted, "r0-h1"); r.TempC != 45 {
		t.Errorf("stuck sensor read %.2f, want the frozen 45", r.TempC)
	}
	if r, _ := latestOf(faulted, "r0-h2"); r.AtS != preDrop.AtS {
		t.Errorf("dropped sensor still advanced telemetry (AtS %v -> %v)", preDrop.AtS, r.AtS)
	}
	// NaN readings are refused at the ingest plausibility gate, so the
	// host starves exactly like a dropped sensor — and the refusals are
	// tallied by reason.
	if r, _ := latestOf(faulted, "r0-h3"); r.AtS != preNaN.AtS {
		t.Errorf("NaN sensor still advanced telemetry (AtS %v -> %v)", preNaN.AtS, r.AtS)
	}
	byReason, _ := faulted.IngestRejected()
	if byReason[telemetry.RejectNaN] == 0 {
		t.Error("NaN sensor readings were not rejected by reason")
	}
	rb, _ := latestOf(faulted, "r0-h4")
	rh, _ := latestOf(healthy, "r0-h4")
	if got := rb.TempC - rh.TempC; got < 29 || got > 31 {
		t.Errorf("biased sensor shifted by %.2f, want +30", got)
	}

	// Clear everything; both fleets must converge to identical telemetry.
	for host := range faults {
		if err := setSensorFault(faulted, host, substrate.SensorFault{}); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []*Controller{healthy, faulted} {
		if _, err := runRounds(c, 2); err != nil {
			t.Fatal(err)
		}
	}
	for host := range faults {
		a, okA := latestOf(healthy, host)
		b, okB := latestOf(faulted, host)
		if !okA || !okB {
			t.Fatalf("host %s missing from a snapshot (healthy %v, faulted %v)", host, okA, okB)
		}
		if a != b {
			t.Errorf("host %s did not restore the healthy stream: healthy %+v, cleared %+v", host, a, b)
		}
	}
}

// TestCRACCouplingLazyActivation pins the coupling loop's contract: the
// plant is inert until a scenario touches it (the no-scenario golden-trace
// guarantee), a setpoint excursion drags the supply up with the plant's
// lag, and restoring the setpoint brings it back.
func TestCRACCouplingLazyActivation(t *testing.T) {
	cfg := testConfig()
	c, err := New(cfg, syntheticStable)
	if err != nil {
		t.Fatal(err)
	}
	st := cracStatus(t, c)
	if st.Active {
		t.Fatal("CRAC coupling active before any fault touched it")
	}
	setpoint := st.SetpointC
	if _, err := runRounds(c, 2); err != nil {
		t.Fatal(err)
	}
	if st = cracStatus(t, c); st.Active {
		t.Fatal("plain rounds activated the CRAC coupling")
	}

	if err := c.WithSubstrate(func(sub *substrate.Fleet) error { return sub.SetCRACSetpointDelta(10) }); err != nil {
		t.Fatal(err)
	}
	if _, err := runRounds(c, 20); err != nil {
		t.Fatal(err)
	}
	st = cracStatus(t, c)
	if !st.Active {
		t.Fatal("setpoint excursion did not activate the coupling loop")
	}
	if st.SupplyC < setpoint+5 {
		t.Fatalf("supply %.2f did not chase the excursed setpoint %.2f", st.SupplyC, setpoint+10)
	}

	if err := c.WithSubstrate(func(sub *substrate.Fleet) error { return sub.SetCRACSetpointDelta(0) }); err != nil {
		t.Fatal(err)
	}
	if _, err := runRounds(c, 40); err != nil {
		t.Fatal(err)
	}
	st = cracStatus(t, c)
	if st.SupplyC > setpoint+1.5 {
		t.Fatalf("supply %.2f did not relax back toward setpoint %.2f", st.SupplyC, setpoint)
	}
}

// TestCRACFailureRunaway pins the failed-unit dynamics: with zero cooling
// capacity the supply air chases the (hotter) return stream instead of the
// setpoint, so the room heats monotonically while load runs.
func TestCRACFailureRunaway(t *testing.T) {
	cfg := testConfig()
	c, err := New(cfg, syntheticStable)
	if err != nil {
		t.Fatal(err)
	}
	seedHotHost(t, c)
	if _, err := runRounds(c, 2); err != nil {
		t.Fatal(err)
	}
	if err := c.WithSubstrate(func(sub *substrate.Fleet) error { return sub.SetCRACCoolingCapacity(0) }); err != nil {
		t.Fatal(err)
	}
	before := cracStatus(t, c)
	if _, err := runRounds(c, 10); err != nil {
		t.Fatal(err)
	}
	after := cracStatus(t, c)
	if !after.Active || after.CapacityFrac != 0 {
		t.Fatalf("CRAC status %+v, want active with zero capacity", after)
	}
	if after.SupplyC <= before.SupplyC+0.2 {
		t.Fatalf("failed CRAC supply %.2f -> %.2f, want a runaway climb", before.SupplyC, after.SupplyC)
	}
}

// TestRemoveVMFreesTheHost pins the surge-teardown hook: the VM's load
// disappears from its host, and removing an unknown VM errors.
func TestRemoveVMFreesTheHost(t *testing.T) {
	cfg := testConfig()
	c, err := New(cfg, syntheticStable)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.PlaceAt("r1-h2", HeavyVMSpec("surge-vm", 8, 4)); err != nil {
		t.Fatal(err)
	}
	if _, err := runRounds(c, 2); err != nil {
		t.Fatal(err)
	}
	loaded, _ := latestOf(c, "r1-h2")
	if loaded.Util < 0.3 {
		t.Fatalf("placed VM did not load its host (util %.2f)", loaded.Util)
	}
	if err := c.RemoveVM("surge-vm"); err != nil {
		t.Fatal(err)
	}
	if _, err := runRounds(c, 2); err != nil {
		t.Fatal(err)
	}
	freed, _ := latestOf(c, "r1-h2")
	if freed.Util >= loaded.Util/2 {
		t.Fatalf("removed VM still loading the host (util %.2f -> %.2f)", loaded.Util, freed.Util)
	}
	if err := c.RemoveVM("surge-vm"); err == nil {
		t.Fatal("removing an already-removed VM must error")
	}
	if err := c.RemoveVM("never-existed"); err == nil {
		t.Fatal("removing an unknown VM must error")
	}
}
