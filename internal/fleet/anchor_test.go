package fleet

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"vmtherm/internal/checkpoint"
	"vmtherm/internal/dataset"
	"vmtherm/internal/telemetry"
	"vmtherm/internal/vmm"
	"vmtherm/internal/workload"
)

// gridSource is a no-op telemetry source for tests that inject readings
// directly into the controller.
type gridSource struct{ now float64 }

func (s *gridSource) Name() string { return "grid" }
func (s *gridSource) NowS() float64 {
	return s.now
}
func (s *gridSource) Advance(dtS float64, _ func(telemetry.Reading) bool) error {
	s.now += dtS
	return nil
}

// gridController builds a source-driven controller whose tracked population
// is one host per (util, memFrac) grid point.
func gridController(t *testing.T, cfg Config, predict BatchCasePredictor, utils, mems []float64) *Controller {
	t.Helper()
	cfg.MaxHosts = len(utils)*len(mems) + 1
	ctl, err := NewWithSource(cfg, &gridSource{}, predict)
	if err != nil {
		t.Fatal(err)
	}
	for i, u := range utils {
		for j, m := range mems {
			id := fmt.Sprintf("g%03d-%03d", i, j)
			seedReading(ctl, Reading{HostID: id, AtS: 0, TempC: 30, Util: u, MemFrac: m})
		}
	}
	return ctl
}

func gridAxis(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i) / float64(n-1)
	}
	return out
}

// TestAnchorCacheWithinQuantEpsilon is the quantization-error property test:
// across the whole (util, memFrac) grid, the cache-enabled anchor (predicted
// once at the bucket center) must stay within the configured quantization
// epsilon of the exact per-host prediction — and that epsilon must stay
// below ReanchorEpsC/2, so cache error can never push a session across the
// re-anchor threshold on its own.
func TestAnchorCacheWithinQuantEpsilon(t *testing.T) {
	utils, mems := gridAxis(97), gridAxis(41)
	// utilSensC / memSensC are the model's worst-case output sensitivities
	// in °C per unit input; the configured quantization epsilon is the
	// sensitivity-weighted half-bucket bound they imply.
	check := func(t *testing.T, predict BatchCasePredictor, utilSensC, memSensC float64) {
		cfgExact := DefaultConfig()
		cfgExact.AnchorCacheDisabled = true
		exact := gridController(t, cfgExact, predict, utils, mems)
		cached := gridController(t, DefaultConfig(), predict, utils, mems)

		exactAnchors, _, _, err := anchorsOf(exact)
		if err != nil {
			t.Fatal(err)
		}
		cachedAnchors, hits, misses, err := anchorsOf(cached)
		if err != nil {
			t.Fatal(err)
		}
		if hits != 0 {
			t.Fatalf("cold grid round reported %d hits", hits)
		}
		if misses != len(exactAnchors) {
			t.Fatalf("cold grid: %d misses for %d hosts", misses, len(exactAnchors))
		}

		eps := cached.cfg.AnchorQuantUtil/2*utilSensC + cached.cfg.AnchorQuantMem/2*memSensC
		if lim := cached.cfg.ReanchorEpsC / 2; eps > lim {
			t.Fatalf("configured quantization epsilon %.3f exceeds ReanchorEpsC/2 = %.3f", eps, lim)
		}
		var maxDiff float64
		for id, want := range exactAnchors {
			got, ok := cachedAnchors[id]
			if !ok {
				t.Fatalf("cached round missing anchor for %s", id)
			}
			if d := math.Abs(got - want); d > maxDiff {
				maxDiff = d
			}
		}
		// Grid points landing exactly on bucket edges realize the half-bucket
		// worst case; allow rounding slack at the boundary itself.
		if maxDiff > eps*(1+1e-12) {
			t.Fatalf("cached-vs-exact divergence %.4f°C exceeds quantization epsilon %.4f°C", maxDiff, eps)
		}
		t.Logf("grid %d×%d: max divergence %.4f°C (epsilon %.4f°C), fanout %d of %d hosts",
			len(utils), len(mems), maxDiff, eps, len(cached.caseBuf), len(utils)*len(mems))

		// A second pass over identical telemetry must be all hits and
		// bit-identical to the first cached pass.
		firstPass := cachedAnchors
		again, hits2, misses2, err := anchorsOf(cached)
		if err != nil {
			t.Fatal(err)
		}
		if misses2 != 0 || hits2 != len(firstPass) {
			t.Fatalf("warm grid round: %d hits / %d misses", hits2, misses2)
		}
		for id, v := range firstPass {
			if again[id] != v {
				t.Fatalf("warm anchor for %s changed: %v -> %v", id, v, again[id])
			}
		}
	}

	t.Run("synthetic", func(t *testing.T) {
		// The synthetic predictor is ambient + 75·util: Lipschitz constant 75
		// in util, 0 in mem — the worst case the default buckets must absorb.
		check(t, syntheticStable, 75, 0)
	})
	t.Run("svm", func(t *testing.T) {
		if testing.Short() {
			t.Skip("short mode: skipping SVM training")
		}
		model := tinyStableModel(t)
		// A full-load swing is ~75 °C of CPU heat but only a few degrees of
		// memory heat; hold the trained model to those sensitivities.
		check(t, StableBatchPredictor(model, 1800), 75, 12)
	})
}

// TestWarmAnchorsZeroAlloc pins the warm-round contract: once every tracked
// host's anchor is cached, the whole anchors() pass — key derivation, cache
// hits, slot anchor fill — allocates nothing, for both the source-driven and
// the simulated path.
func TestWarmAnchorsZeroAlloc(t *testing.T) {
	t.Run("source", func(t *testing.T) {
		ctl := gridController(t, DefaultConfig(), syntheticStable, gridAxis(16), gridAxis(4))
		if _, _, err := ctl.anchors(); err != nil { // cold round fills the cache
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(100, func() {
			_, misses, err := ctl.anchors()
			if err != nil {
				t.Fatal(err)
			}
			if misses != 0 {
				t.Fatalf("warm round had %d misses", misses)
			}
		})
		if allocs != 0 {
			t.Fatalf("warm source anchors() allocates %.1f/op, want 0", allocs)
		}
	})
	t.Run("sim", func(t *testing.T) {
		cfg := DefaultConfig()
		cfg.Racks, cfg.HostsPerRack = 2, 8
		ctl, err := New(cfg, syntheticStable)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 8; i++ {
			if err := ctl.PlaceAt(ctl.Hosts()[i*2], HeavyVMSpec(fmt.Sprintf("za-%d", i), 2, 4)); err != nil {
				t.Fatal(err)
			}
		}
		if _, _, err := ctl.anchors(); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(100, func() {
			_, misses, err := ctl.anchors()
			if err != nil {
				t.Fatal(err)
			}
			if misses != 0 {
				t.Fatalf("warm round had %d misses", misses)
			}
		})
		if allocs != 0 {
			t.Fatalf("warm sim anchors() allocates %.1f/op, want 0", allocs)
		}
	})
}

// TestInvalidateAnchorCacheForcesRepredict: after an epoch bump every anchor
// must go back through the predictor.
func TestInvalidateAnchorCacheForcesRepredict(t *testing.T) {
	ctl := gridController(t, DefaultConfig(), syntheticStable, gridAxis(8), gridAxis(2))
	if _, _, err := ctl.anchors(); err != nil {
		t.Fatal(err)
	}
	if hits, misses, _ := ctl.anchors(); misses != 0 || hits == 0 {
		t.Fatalf("warm round: %d hits / %d misses", hits, misses)
	}
	ctl.InvalidateAnchorCache()
	if hits, misses, _ := ctl.anchors(); hits != 0 || misses == 0 {
		t.Fatalf("post-invalidate round: %d hits / %d misses, want all misses", hits, misses)
	}
	if st, _, enabled := ctl.AnchorCacheStats(); !enabled || st.Invalidations != 1 {
		t.Fatalf("cache stats after invalidate: %+v enabled=%v", st, enabled)
	}
}

// TestAnchorCacheDedupesSharedBuckets: hosts whose observations fall in the
// same quantized bucket must share one staged case (and one prediction).
func TestAnchorCacheDedupesSharedBuckets(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxHosts = 64
	ctl, err := NewWithSource(cfg, &gridSource{}, syntheticStable)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		id := fmt.Sprintf("dup-%02d", i)
		// All 32 hosts inside one (util, mem) bucket.
		seedReading(ctl, Reading{HostID: id, AtS: 0, TempC: 30, Util: 0.5021, MemFrac: 0.25})
	}
	anchors, _, misses, err := anchorsOf(ctl)
	if err != nil {
		t.Fatal(err)
	}
	if misses != 32 {
		t.Fatalf("misses = %d, want 32", misses)
	}
	if fan := len(ctl.caseBuf); fan != 1 {
		t.Fatalf("fanout = %d cases for one shared bucket, want 1", fan)
	}
	first := anchors["dup-00"]
	for id, v := range anchors {
		if v != first {
			t.Fatalf("host %s anchor %v differs from shared bucket value %v", id, v, first)
		}
	}
}

// TestSimFingerprintTracksLoadDistribution: redistributing load between a
// VM's tasks — same total host utilization, different task_cpu_max — must
// change the deployment fingerprint and miss the cache, not serve the
// anchor predicted for the old distribution.
func TestSimFingerprintTracksLoadDistribution(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Racks, cfg.HostsPerRack = 1, 2
	ctl, err := New(cfg, syntheticStable)
	if err != nil {
		t.Fatal(err)
	}
	spec := workload.VMSpec{
		ID:     "dist",
		Config: vmm.VMConfig{VCPUs: 2, MemoryGB: 4},
		Tasks: []workload.TaskSpec{
			{Task: vmm.Task{ID: "t0", Class: vmm.CPUBound, CPUFraction: 0.5, MemGB: 1}},
			{Task: vmm.Task{ID: "t1", Class: vmm.CPUBound, CPUFraction: 0.5, MemGB: 1}},
		},
	}
	if err := ctl.PlaceAt("r0-h0", spec); err != nil {
		t.Fatal(err)
	}
	if _, misses, err := ctl.anchors(); err != nil || misses != 1 {
		t.Fatalf("cold anchors: misses=%d err=%v", misses, err)
	}
	if _, misses, _ := ctl.anchors(); misses != 0 {
		t.Fatalf("unchanged deployment missed the cache (%d misses)", misses)
	}
	// Shift load between tasks, keeping the total (and host utilization)
	// identical: 0.5+0.5 → 0.9+0.1.
	vm, err := ctl.sim.hosts["r0-h0"].host.VM("dist")
	if err != nil {
		t.Fatal(err)
	}
	if err := vm.SetTaskCPU("t0", 0.9); err != nil {
		t.Fatal(err)
	}
	if err := vm.SetTaskCPU("t1", 0.1); err != nil {
		t.Fatal(err)
	}
	if hits, misses, _ := ctl.anchors(); misses != 1 || hits != 0 {
		t.Fatalf("redistributed load: %d hits / %d misses, want a fresh miss", hits, misses)
	}
}

// TestRecordReplayRoundTrip closes the capture→replay loop in-process: a
// simulated run captured through TeeTelemetry (the fleetd -record path)
// must replay through a TraceSource-driven controller — trace CSV encode
// and decode included — with live sessions and zero substrate activity.
func TestRecordReplayRoundTrip(t *testing.T) {
	cfg := traceConfig()
	cfg.Racks, cfg.HostsPerRack = 2, 4
	ctl, err := New(cfg, syntheticStable)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 4; v++ {
		if err := ctl.PlaceAt("r0-h0", HeavyVMSpec(fmt.Sprintf("rr-%d", v), 2, 4)); err != nil {
			t.Fatal(err)
		}
	}
	var rec telemetry.Recorder
	ctl.TeeTelemetry(rec.Emit)
	const rounds = 8
	if _, err := ctl.Run(rounds); err != nil {
		t.Fatal(err)
	}
	ctl.TeeTelemetry(nil)
	if len(rec.Readings) == 0 {
		t.Fatal("tee captured nothing")
	}
	telemetry.SortReadings(rec.Readings)

	// Through the CSV codec, exactly as fleetd -record writes it.
	var buf bytes.Buffer
	if err := dataset.WriteTrace(&buf, rec.Readings); err != nil {
		t.Fatal(err)
	}
	readings, err := dataset.ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(readings) != len(rec.Readings) {
		t.Fatalf("codec round-trip: %d of %d readings", len(readings), len(rec.Readings))
	}

	src, err := telemetry.NewTraceSource(readings, telemetry.TraceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	replay, err := NewWithSource(traceConfig(), src, syntheticStable)
	if err != nil {
		t.Fatal(err)
	}
	reports, err := replay.Run(rounds)
	if err != nil {
		t.Fatal(err)
	}
	last := reports[len(reports)-1]
	if last.SessionsLive != 8 {
		t.Fatalf("replay ended with %d live sessions, want 8", last.SessionsLive)
	}
	for _, r := range reports {
		if r.Placements != 0 || r.AppliedMoves != 0 {
			t.Fatalf("replay performed substrate work: %+v", r)
		}
	}
}

// TestTeeSeesHTTPPushedReadings: a -record capture must include readings
// arriving through the HTTP push path (Controller.Ingest), not only source
// emissions — both funnel through the same emit sink.
func TestTeeSeesHTTPPushedReadings(t *testing.T) {
	ctl, err := NewWithSource(DefaultConfig(), &gridSource{}, syntheticStable)
	if err != nil {
		t.Fatal(err)
	}
	var rec telemetry.Recorder
	ctl.TeeTelemetry(rec.Emit)
	if !ctl.Ingest(Reading{HostID: "push-1", AtS: 1, TempC: 30}) {
		t.Fatal("push rejected")
	}
	if len(rec.Readings) != 1 || rec.Readings[0].HostID != "push-1" {
		t.Fatalf("tee captured %+v, want the pushed reading", rec.Readings)
	}
	ctl.TeeTelemetry(nil)
	if !ctl.Ingest(Reading{HostID: "push-2", AtS: 2, TempC: 30}) {
		t.Fatal("push after detach rejected")
	}
	if len(rec.Readings) != 1 {
		t.Fatalf("detached tee still capturing (%d readings)", len(rec.Readings))
	}
}

// TestAnchorQuantValidation: bucket widths whose worst-case divergence
// exceeds the re-anchor threshold must be rejected at construction, not
// oscillate silently at runtime.
func TestAnchorQuantValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.AnchorQuantUtil = 0.05
	if _, err := NewWithSource(cfg, &gridSource{}, syntheticStable); err == nil {
		t.Fatal("oversized anchor quantization accepted")
	}
	// The same widths are fine once ReanchorEpsC grows to absorb them.
	cfg.ReanchorEpsC = 4.5
	if _, err := NewWithSource(cfg, &gridSource{}, syntheticStable); err != nil {
		t.Fatalf("widened ReanchorEpsC still rejected: %v", err)
	}
	// Disabling the cache lifts the constraint entirely.
	cfg.ReanchorEpsC = 0
	cfg.AnchorCacheDisabled = true
	if _, err := NewWithSource(cfg, &gridSource{}, syntheticStable); err != nil {
		t.Fatalf("cache-disabled config rejected: %v", err)
	}
}

// TestAnchorCachePersistenceWarmsRestart closes the restart loop: a fleet
// checkpoints, a fresh controller of the same configuration restores, and
// the restarted fleet's first round is already all cache hits — zero
// batch-predictor fan-out instead of a cold mass re-anchor.
func TestAnchorCachePersistenceWarmsRestart(t *testing.T) {
	ctl := gridController(t, DefaultConfig(), syntheticStable, gridAxis(16), gridAxis(4))
	if _, misses, err := ctl.anchors(); err != nil || misses == 0 {
		t.Fatalf("cold run: misses=%d err=%v", misses, err)
	}
	st, err := ctl.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}

	restarted := gridController(t, DefaultConfig(), syntheticStable, gridAxis(16), gridAxis(4))
	if err := restarted.Restore(st); err != nil {
		t.Fatal(err)
	}
	anchors, hits, misses, err := anchorsOf(restarted)
	if err != nil {
		t.Fatal(err)
	}
	if misses != 0 || hits == 0 {
		t.Fatalf("restarted fleet's first round had %d hits %d misses, want hits only", hits, misses)
	}
	// Restored anchors must equal the original fleet's, not just hit.
	orig, _, _, err := anchorsOf(ctl)
	if err != nil {
		t.Fatal(err)
	}
	for id, v := range orig {
		if anchors[id] != v {
			t.Fatalf("restored anchor for %s = %v, original %v", id, anchors[id], v)
		}
	}

	// A restart configured with different bucket widths must not serve the
	// saved keys: they address other buckets there.
	mismatch := DefaultConfig()
	mismatch.AnchorQuantUtil = 0.005
	other := gridController(t, mismatch, syntheticStable, gridAxis(16), gridAxis(4))
	if err := other.Restore(st); err != nil {
		t.Fatal(err)
	}
	if n := other.AnchorCacheLen(); n != 0 {
		t.Fatalf("quantizer-mismatched restore kept %d saved anchors", n)
	}
	if hits, _, err := other.anchors(); err != nil || hits != 0 {
		t.Fatalf("quantizer-mismatched restore served %d saved anchors (err %v)", hits, err)
	}

	// With the cache disabled the checkpoint carries no cache section and
	// still round-trips; a cache section offered to such a controller is
	// ignored.
	disabled := DefaultConfig()
	disabled.AnchorCacheDisabled = true
	off := gridController(t, disabled, syntheticStable, gridAxis(4), gridAxis(2))
	offSt, err := off.Checkpoint()
	if err != nil || offSt.AnchorCache != nil {
		t.Fatalf("cache-disabled checkpoint: section %v, err %v", offSt.AnchorCache, err)
	}
	for _, state := range []*checkpoint.State{offSt, st} {
		// Sized for the larger fleet: a restore refuses more hosts than MaxHosts.
		if err := gridController(t, disabled, syntheticStable, gridAxis(16), gridAxis(4)).Restore(state); err != nil {
			t.Fatalf("cache-disabled restore: %v", err)
		}
	}
}

// TestStableMembershipSkipsOrderRebuild: rounds with unchanged membership
// must not disturb the discovered host order slice, and membership changes
// (new host, eviction) must rebuild it sorted.
func TestStableMembershipSkipsOrderRebuild(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxHosts = 8
	ctl, err := NewWithSource(cfg, &gridSource{}, syntheticStable)
	if err != nil {
		t.Fatal(err)
	}
	feed := func(ids ...string) {
		for _, id := range ids {
			ctl.Ingest(Reading{HostID: id, AtS: ctl.src.NowS() + 1, TempC: 30, Util: 0.5})
		}
	}
	feed("h-b", "h-a")
	if _, err := ctl.RunRound(); err != nil {
		t.Fatal(err)
	}
	wantOrder := []string{"h-a", "h-b"}
	for i, id := range ctl.Hosts() {
		if id != wantOrder[i] {
			t.Fatalf("order = %v, want %v", ctl.Hosts(), wantOrder)
		}
	}
	if ctl.orderDirty {
		t.Fatal("orderDirty still set after rebuild")
	}

	// Stable round: same hosts, fresh readings — the rebuild must be skipped
	// (orderDirty stays false) and the order slice must stay identical.
	before := &ctl.order[0]
	feed("h-b", "h-a")
	if _, err := ctl.RunRound(); err != nil {
		t.Fatal(err)
	}
	if ctl.orderDirty {
		t.Fatal("stable round marked membership dirty")
	}
	if &ctl.order[0] != before {
		t.Fatal("stable round rebuilt the order slice")
	}

	// A new host must trigger a sorted rebuild.
	feed("h-b", "h-a", "h-0")
	if _, err := ctl.RunRound(); err != nil {
		t.Fatal(err)
	}
	got := ctl.Hosts()
	want := []string{"h-0", "h-a", "h-b"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order after discovery = %v, want %v", got, want)
		}
	}
}

// TestMissScratchDropsLastRoundsCases: the miss buffers are reused across
// rounds, and a case left beyond a truncated slice's length would pin the
// arena arrays a mass-miss round outgrew (and a simulated host's deployment
// view) for as long as the controller lives. The next anchor pass must clear
// what the last one staged.
func TestMissScratchDropsLastRoundsCases(t *testing.T) {
	ctl := gridController(t, DefaultConfig(), syntheticStable, gridAxis(32), gridAxis(4))
	if _, misses, err := ctl.anchors(); err != nil || misses == 0 { // cold: every bucket staged
		t.Fatalf("cold pass: misses=%d err=%v", misses, err)
	}
	if _, misses, err := ctl.anchors(); err != nil || misses != 0 { // warm: nothing staged
		t.Fatalf("warm pass: misses=%d err=%v", misses, err)
	}
	for i, cse := range ctl.caseBuf[:cap(ctl.caseBuf)] {
		if cse.VMs != nil {
			t.Fatalf("caseBuf[%d] still holds the cold pass's case", i)
		}
	}
	for i, vm := range ctl.obsVMs[:cap(ctl.obsVMs)] {
		if vm.Tasks != nil {
			t.Fatalf("obsVMs[%d] still holds the cold pass's task list", i)
		}
	}
}
