package fleet

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"testing"

	"vmtherm/internal/dataset"
	"vmtherm/internal/engine"
	"vmtherm/internal/mathx"
	"vmtherm/internal/substrate"
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
func gridController(t *testing.T, cfg Config, predict Predictor, utils, mems []float64) *Controller {
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

// exactSourceAnchors is the source path's exact-anchor oracle: the predictor
// called on each present slot's own (util, memFrac) reading, one host at a
// time, with no quantization and no cache.
func exactSourceAnchors(t *testing.T, c *Controller, predict Predictor) map[string]float64 {
	t.Helper()
	out := make(map[string]float64)
	vals := make([]float64, 1)
	for i, id := range c.eng.IDs() {
		s := &c.eng.Slots()[i]
		if !s.Present {
			continue
		}
		rows := []HostRow{c.utilizationRow(s.Reading.Util, s.Reading.MemFrac)}
		if err := predict.Score(c.cfg.HostShape, c.cfg.FanCount, rows, vals); err != nil {
			t.Fatalf("exact anchor for %s: %v", id, err)
		}
		out[id] = vals[0]
	}
	return out
}

// TestAnchorCacheWithinQuantEpsilon is the quantization-error property test:
// across the whole (util, memFrac) grid, the served anchor (predicted once
// at the bucket center) must stay within the configured quantization
// epsilon of the exact per-host prediction — and that epsilon must stay
// below ReanchorEpsC/2, so cache error can never push a session across the
// re-anchor threshold on its own.
func TestAnchorCacheWithinQuantEpsilon(t *testing.T) {
	utils, mems := gridAxis(97), gridAxis(41)
	// utilSensC / memSensC are the model's worst-case output sensitivities
	// in °C per unit input; the configured quantization epsilon is the
	// sensitivity-weighted half-bucket bound they imply.
	check := func(t *testing.T, predict Predictor, utilSensC, memSensC float64) {
		cached := gridController(t, DefaultConfig(), predict, utils, mems)
		exactAnchors := exactSourceAnchors(t, cached, predict)
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
		if lim := engine.ReanchorEpsC / 2; eps > lim {
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
			len(utils), len(mems), maxDiff, eps, len(cached.anchorRows), len(utils)*len(mems))

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

// TestSimAnchorCacheWithinQuantEpsilon is the simulated path's half of the
// quantization-error property: after every round, each occupied host's
// served anchor — a cache hit or a miss predicted at the inlet bucket's
// center — stays within the sim epsilon Config.Validate bounds of the exact
// prediction for the host's deployment at its own inlet. Slow sines keep
// the fingerprints stable enough for the rounds to hit; no migrations run,
// so the deployment after the round is the one the anchor pass saw.
func TestSimAnchorCacheWithinQuantEpsilon(t *testing.T) {
	cfg := testConfig()
	cfg.MaxMigrationsPerRound = 0
	ctl, err := New(cfg, syntheticStable)
	if err != nil {
		t.Fatal(err)
	}
	rng := mathx.SplitStable(2017, "sim-anchor-eps")
	hosts := ctl.Hosts()
	for v := 0; v < 40; v++ {
		id := fmt.Sprintf("slow-%02d", v)
		vcpus := rng.IntBetween(1, 2)
		spec := workload.VMSpec{ID: id, Config: vmm.VMConfig{VCPUs: vcpus, MemoryGB: float64(2 * vcpus)}}
		for k := 0; k < vcpus; k++ {
			base := rng.Uniform(0.2, 0.8)
			spec.Tasks = append(spec.Tasks, workload.TaskSpec{
				Task:    vmm.Task{ID: fmt.Sprintf("%s-t%d", id, k), Class: vmm.CPUBound, CPUFraction: base, MemGB: 0.5},
				Profile: workload.Sine{Base: base, Amplitude: 0.002, Period: rng.Uniform(200, 2000), Phase: rng.Uniform(0, 6)},
			})
		}
		if err := ctl.PlaceAt(hosts[v%len(hosts)], spec); err != nil {
			t.Fatal(err)
		}
	}

	rc := ctl.cfg // resolved: the zero bucket widths took their defaults
	srcEps := rc.AnchorQuantUtil/2*anchorUtilSensC + rc.AnchorQuantMem/2*anchorMemSensC
	simEps := srcEps/2 + rc.AnchorQuantAmbientC/2*anchorAmbientSens
	var hits int
	var maxDiff float64
	for round := 0; round < 200; round++ {
		rep, err := ctl.RunRound()
		if err != nil {
			t.Fatal(err)
		}
		hits += rep.AnchorHits
		for i := range ctl.eng.Slots() {
			h := ctl.sub.Host(i)
			if h.NumVMs() == 0 {
				continue
			}
			cse, err := substrate.HostStateCase(h, ctl.cfg.FanCount, ctl.sub.Inlet(i), nil)
			if err != nil {
				t.Fatal(err)
			}
			exact := predictCase(t, syntheticStable, cse)
			maxDiff = max(maxDiff, math.Abs(ctl.eng.Slots()[i].Anchor-exact))
		}
	}
	if hits == 0 {
		t.Fatal("200 rounds recorded no anchor-cache hits: the bound was checked on misses only")
	}
	if maxDiff > simEps {
		t.Fatalf("served-vs-exact sim anchor divergence %.4f°C exceeds the sim epsilon %.4f°C", maxDiff, simEps)
	}
	t.Logf("%d hits over 200 rounds: max divergence %.4f°C (sim epsilon %.4f°C)", hits, maxDiff, simEps)
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
	if st, _ := ctl.AnchorCacheStats(); st.Invalidations != 1 {
		t.Fatalf("cache stats after invalidate: %+v", st)
	}
}

// TestAnchorCacheDedupesSharedBuckets: hosts whose observations fall in the
// same quantized bucket must share one staged row (and one prediction).
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
	if fan := len(ctl.anchorRows); fan != 1 {
		t.Fatalf("fanout = %d rows for one shared bucket, want 1", fan)
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
	vm, err := ctl.sub.Host(0).VM("dist") // r0-h0 is slot 0
	if err != nil {
		t.Fatal(err)
	}
	if err := vm.SetTaskCPU(0, 0.9); err != nil { // t0
		t.Fatal(err)
	}
	if err := vm.SetTaskCPU(1, 0.1); err != nil { // t1
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
	if _, err := runRounds(ctl, rounds); err != nil {
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
	reports, err := runRounds(replay, rounds)
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
// arriving through the HTTP push path (which ingest takes), not only source
// emissions — both paths call the one attached tee.
func TestTeeSeesHTTPPushedReadings(t *testing.T) {
	ctl, err := NewWithSource(DefaultConfig(), &gridSource{}, syntheticStable)
	if err != nil {
		t.Fatal(err)
	}
	var rec telemetry.Recorder
	ctl.TeeTelemetry(rec.Emit)
	if !ingest(ctl, Reading{HostID: "push-1", AtS: 1, TempC: 30}) {
		t.Fatal("push rejected")
	}
	if len(rec.Readings) != 1 || rec.Readings[0].HostID != "push-1" {
		t.Fatalf("tee captured %+v, want the pushed reading", rec.Readings)
	}
	ctl.TeeTelemetry(nil)
	if !ingest(ctl, Reading{HostID: "push-2", AtS: 2, TempC: 30}) {
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

	// A checkpoint with no cache section (one written by a run with the
	// cache off) restores, and the restarted fleet starts cold.
	bare := *st
	bare.AnchorCache = nil
	cold := gridController(t, DefaultConfig(), syntheticStable, gridAxis(16), gridAxis(4))
	if err := cold.Restore(&bare); err != nil {
		t.Fatalf("restore without a cache section: %v", err)
	}
	if n := cold.AnchorCacheLen(); n != 0 {
		t.Fatalf("restore without a cache section holds %d anchors", n)
	}
	if hits, misses, err := cold.anchors(); err != nil || hits != 0 || misses == 0 {
		t.Fatalf("restore without a cache section: first round %d hits %d misses (err %v), want misses only", hits, misses, err)
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
			ingest(ctl, Reading{HostID: id, AtS: ctl.src.NowS() + 1, TempC: 30, Util: 0.5})
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
	before := &ctl.eng.IDs()[0]
	feed("h-b", "h-a")
	if _, err := ctl.RunRound(); err != nil {
		t.Fatal(err)
	}
	if ctl.orderDirty {
		t.Fatal("stable round marked membership dirty")
	}
	if &ctl.eng.IDs()[0] != before {
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
// rounds, and an entry left beyond a truncated slice's length would pin
// whatever it points to for as long as the controller lives. The staged
// rows are folds — values with no pointer in them — so a truncated buffer
// pins nothing; a pointer added to HostRow fails this test, and would need
// the buffers cleared at the top of every anchor pass.
func TestMissScratchDropsLastRoundsCases(t *testing.T) {
	ctl := gridController(t, DefaultConfig(), syntheticStable, gridAxis(32), gridAxis(4))
	if _, misses, err := ctl.anchors(); err != nil || misses == 0 { // cold: every bucket staged
		t.Fatalf("cold pass: misses=%d err=%v", misses, err)
	}
	if _, misses, err := ctl.anchors(); err != nil || misses != 0 || len(ctl.anchorRows) != 0 { // warm: nothing staged
		t.Fatalf("warm pass: misses=%d rows=%d err=%v", misses, len(ctl.anchorRows), err)
	}
	var walk func(typ reflect.Type, path string)
	walk = func(typ reflect.Type, path string) {
		switch typ.Kind() {
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				walk(typ.Field(i).Type, path+"."+typ.Field(i).Name)
			}
		case reflect.Array:
			walk(typ.Elem(), path+"[]")
		case reflect.Bool, reflect.Int, reflect.Int32, reflect.Int64, reflect.Uint64, reflect.Float64:
		default:
			t.Fatalf("%s is a %s: staged rows would pin what it points to", path, typ.Kind())
		}
	}
	walk(reflect.TypeOf(HostRow{}), "HostRow")
}

// TestAnchorCountsMatchCacheStats: the anchor pass adds its hits and misses
// to the cache's counters once, and at every round boundary those counters
// have advanced by exactly the round's AnchorHits and AnchorMisses, every
// host the pass looked up counted once, as a per-lookup count would. Twin
// controllers, one serial and one whose miss batches shard across four
// workers, report the same counts and hold the same Stats round by round, on
// the source path (shared-bucket misses, rotations through a small cache)
// and on the simulated path (placements and migrations move fingerprints).
func TestAnchorCountsMatchCacheStats(t *testing.T) {
	source := func(t *testing.T, workers int) *Controller {
		const hosts, rounds = 300, 8
		var readings []Reading
		for r := 0; r < rounds; r++ {
			for i := 0; i < hosts; i++ {
				readings = append(readings, Reading{
					HostID: fmt.Sprintf("tw%03d", i), AtS: 15 * float64(r), TempC: 40 + float64(i%25),
					// Ten hosts a bucket, and the buckets move every round.
					Util: 0.05 + 0.9*float64((i/10*7+r*3)%97)/97, MemFrac: 0.3,
				})
			}
		}
		src, err := telemetry.NewTraceSource(readings, telemetry.TraceOptions{Loop: true})
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig()
		cfg.AnchorCacheEntries = 48
		cfg.PhysWorkers, cfg.AnchorWorkers = workers, workers
		ctl, err := NewWithSource(cfg, src, syntheticStable)
		if err != nil {
			t.Fatal(err)
		}
		return ctl
	}
	sim := func(t *testing.T, workers int) *Controller {
		cfg := testConfig()
		cfg.Racks, cfg.HostsPerRack = 4, 24
		cfg.ThresholdC = 55
		cfg.MaxMigrationsPerRound = 2
		cfg.PhysWorkers, cfg.AnchorWorkers = workers, workers
		ctl, err := New(cfg, syntheticStable)
		if err != nil {
			t.Fatal(err)
		}
		hosts := ctl.Hosts()
		for v := 0; v < 120; v++ {
			if err := ctl.PlaceAt(hosts[(v*7)%len(hosts)], HeavyVMSpec(fmt.Sprintf("tw-%03d", v), 1+v%4, 4)); err != nil {
				t.Fatal(err)
			}
		}
		return ctl
	}
	for _, tc := range []struct {
		name string
		make func(*testing.T, int) *Controller
	}{{"source", source}, {"sim", sim}} {
		t.Run(tc.name, func(t *testing.T) {
			serial, sharded := tc.make(t, 1), tc.make(t, 4)
			var hits, misses int
			for round := 1; round <= 40; round++ {
				before := serial.cache.Stats()
				rep, err := serial.RunRound()
				if err != nil {
					t.Fatal(err)
				}
				twin, err := sharded.RunRound()
				if err != nil {
					t.Fatal(err)
				}
				st := serial.cache.Stats()
				if got := sharded.cache.Stats(); got != st {
					t.Fatalf("round %d: sharded twin's stats %+v, serial %+v", round, got, st)
				}
				if twin.AnchorHits != rep.AnchorHits || twin.AnchorMisses != rep.AnchorMisses || twin.AnchorFanout != rep.AnchorFanout {
					t.Fatalf("round %d: sharded twin counted %d/%d/%d, serial %d/%d/%d", round,
						twin.AnchorHits, twin.AnchorMisses, twin.AnchorFanout, rep.AnchorHits, rep.AnchorMisses, rep.AnchorFanout)
				}
				if st.Hits-before.Hits != int64(rep.AnchorHits) || st.Misses-before.Misses != int64(rep.AnchorMisses) {
					t.Fatalf("round %d: stats moved %+v -> %+v for %d hits, %d misses",
						round, before, st, rep.AnchorHits, rep.AnchorMisses)
				}
				if serial.sub == nil && rep.AnchorHits+rep.AnchorMisses != rep.Hosts {
					// No host goes dark: every tracked host was looked up.
					t.Fatalf("round %d: %d hits + %d misses for %d hosts", round, rep.AnchorHits, rep.AnchorMisses, rep.Hosts)
				}
				hits += rep.AnchorHits
				misses += rep.AnchorMisses
			}
			st := serial.cache.Stats()
			if st.Hits != int64(hits) || st.Misses != int64(misses) {
				t.Fatalf("totals: stats %+v, reports %d hits, %d misses", st, hits, misses)
			}
			if hits == 0 || misses == 0 || st.Evicted == 0 && tc.name == "source" {
				t.Fatalf("the rounds missed a case: %d hits, %d misses, stats %+v", hits, misses, st)
			}
			t.Logf("%d hits, %d misses, %d evicted", hits, misses, st.Evicted)
		})
	}
}

// TestTasklessHostAnchorsAtInlet: a host whose VMs have no task is idle to
// the physics, as an empty host is, and Eq. (2)'s task features cannot
// encode it. Under the trained model it must anchor at its inlet, as an
// empty host does, instead of failing every round; and a task-less VM whose
// candidates include an idle host gets a typed decision — placed, priced at
// its host's inlet where it leaves the host idle — instead of failing the
// whole PlaceBatch call.
func TestTasklessHostAnchorsAtInlet(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping SVM training")
	}
	cfg := tinyConfig()
	c, err := New(cfg, StableBatchPredictor(tinyStableModel(t), cfg.HorizonS))
	if err != nil {
		t.Fatal(err)
	}
	taskless := func(id string) workload.VMSpec {
		return workload.VMSpec{ID: id, Config: vmm.VMConfig{VCPUs: 2, MemoryGB: 4}}
	}
	if err := c.PlaceAt("r0-h0", HeavyVMSpec("busy", 2, 4)); err != nil {
		t.Fatal(err)
	}
	if err := c.PlaceAt("r0-h1", taskless("idle-vm")); err != nil {
		t.Fatal(err)
	}
	for round := 1; round <= 3; round++ {
		if _, err := c.RunRound(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		_ = c.WithSubstrate(func(sub *substrate.Fleet) error {
			i, _ := sub.Slot("r0-h1")
			if got, want := c.eng.Slots()[i].Anchor, sub.Inlet(i); got != want {
				t.Fatalf("round %d: task-less host anchored at %v, its inlet is %v", round, got, want)
			}
			return nil
		})
	}
	dec, err := placeOne(c, taskless("late"))
	if err != nil {
		t.Fatalf("placing a task-less VM: %v", err)
	}
	if dec.Status != Placed || dec.HostID != "r0-h1" {
		t.Fatalf("task-less VM: %+v, want placed on the idle r0-h1", dec)
	}
	_ = c.WithSubstrate(func(sub *substrate.Fleet) error {
		if i, _ := sub.Slot("r0-h1"); dec.PredictedStableC != sub.Inlet(i) {
			t.Fatalf("task-less VM on an idle host priced at %v, its inlet is %v", dec.PredictedStableC, sub.Inlet(i))
		}
		return nil
	})
	if _, err := c.RunRound(); err != nil {
		t.Fatal(err)
	}
}
