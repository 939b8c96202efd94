package fleet

import (
	"fmt"
	"testing"

	"vmtherm/internal/mathx"
	"vmtherm/internal/telemetry"
	"vmtherm/internal/vmm"
	"vmtherm/internal/workload"
)

// The fleet benchmarks bench/e2e does not cover: its runs are pinned to
// GOMAXPROCS 1 (bench/e2e/README.md names BenchmarkFleetRound4k/sharded as
// the multi-core guard), its sched_place workload sends 16-VM requests to a
// 1,024-host fleet, not one batch of 1,024 to 16,384 hosts, and its round
// workloads time the drain only as part of the whole round.

// benchSeed keeps benchmark runs reproducible.
const benchSeed = 2016

// benchFleetSim assembles a hosts-sized simulated fleet on the synthetic
// predictor (SVM training at this scale is setup noise, and the point of
// the benchmark is the physics substrate): 32 racks, half the machines
// populated with dynamically profiled VMs so every tick drives real task
// load, plus one warm-up round so the anchor cache and sessions are hot.
func benchFleetSim(b *testing.B, hosts, physWorkers int) *Controller {
	b.Helper()
	cfg := DefaultConfig()
	cfg.Racks = 32
	cfg.HostsPerRack = hosts / cfg.Racks
	cfg.Seed = benchSeed
	cfg.PhysWorkers = physWorkers
	ctl, err := New(cfg, syntheticStable)
	if err != nil {
		b.Fatal(err)
	}
	opts := workload.DefaultGenOptions()
	opts.VMCountMin, opts.VMCountMax = hosts/2, hosts/2
	opts.Host.Cores = 1 << 20
	opts.Host.MemoryGB = 1 << 24
	opts.Dynamic = true
	pool, err := workload.GenerateCase(opts, benchSeed, "fleet-bench-scale")
	if err != nil {
		b.Fatal(err)
	}
	ids := ctl.Hosts()
	for i, spec := range pool.VMs {
		if err := ctl.PlaceAt(ids[i*2], spec); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := ctl.RunRound(); err != nil {
		b.Fatal(err)
	}
	return ctl
}

// BenchmarkFleetRound4k measures one warm control round at 4096 simulated
// hosts, where the thermal/VM physics tick dominates the round. "serial"
// pins PhysWorkers=1; "sharded" uses the default worker pool (min(cores,
// 8)) that advances racks independently. Results are bit-identical across
// the two (pinned by TestParallelPhysicsValueIdentical); on a multi-core
// runner the sharded hosts/s must scale with cores. On a single-core
// machine the two sub-benchmarks coincide.
func BenchmarkFleetRound4k(b *testing.B) {
	const hosts = 4096
	for _, sub := range []struct {
		name    string
		workers int
	}{
		{"serial", 1},
		{"sharded", 0}, // 0 = default min(GOMAXPROCS, 8)
	} {
		b.Run(sub.name, func(b *testing.B) {
			ctl := benchFleetSim(b, hosts, sub.workers)
			cfg := ctl.Config()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ctl.RunRound(); err != nil {
					b.Fatal(err)
				}
			}
			if d := b.Elapsed().Seconds(); d > 0 {
				b.ReportMetric(float64(hosts*b.N)/d, "hosts/s")
				b.ReportMetric(cfg.UpdateEveryS*float64(b.N)/d, "x-realtime")
			}
		})
	}
}

const trace4kHosts = 4096

// traceFleet4k builds a 4,096-host source-driven fleet on a looping trace
// of 16 rounds and runs two loops of it, so every anchor is a cache hit and
// the snapshot ring is warm.
func traceFleet4k(b *testing.B) *Controller {
	const hosts, rounds = trace4kHosts, 16
	cfg := DefaultConfig()
	cfg.MaxHosts = hosts
	cfg.Seed = benchSeed
	cfg.PhysWorkers, cfg.AnchorWorkers = 1, 1
	readings := make([]Reading, 0, hosts*rounds)
	for r := 0; r < rounds; r++ {
		for i := 0; i < hosts; i++ {
			readings = append(readings, Reading{
				HostID:  fmt.Sprintf("t%04d", i),
				AtS:     float64(r) * cfg.UpdateEveryS,
				TempC:   45 + float64((i*7+r)%30),
				Util:    0.2 + 0.6*float64((i*13+r)%97)/97,
				MemFrac: 0.3 + 0.4*float64(i%11)/11,
			})
		}
	}
	src, err := telemetry.NewTraceSource(readings, telemetry.TraceOptions{Loop: true})
	if err != nil {
		b.Fatal(err)
	}
	ctl, err := NewWithSource(cfg, src, syntheticStable)
	if err != nil {
		b.Fatal(err)
	}
	for r := 0; r < 2*rounds; r++ {
		if _, err := ctl.RunRound(); err != nil {
			b.Fatal(err)
		}
	}
	return ctl
}

// BenchmarkFleetRoundTrace4k measures one warm control round of a 4,096-host
// source-driven fleet — replay into the host table, cached anchors, engine
// round, publish — on a looping trace of 16 rounds, so after the first loop
// every anchor is a cache hit. It runs serial, as bench/e2e's one P does
// (the sharded engine round spawns its workers each round); warm, it
// allocates nothing.
func BenchmarkFleetRoundTrace4k(b *testing.B) {
	ctl := traceFleet4k(b)
	b.ReportAllocs()
	b.ResetTimer()
	hotspots := 0
	for i := 0; i < b.N; i++ {
		rep, err := ctl.RunRound()
		if err != nil {
			b.Fatal(err)
		}
		hotspots += rep.Hotspots
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*trace4kHosts), "ns/host")
	// The round collects the hot set without ordering it; its cost still
	// grows with this count (compare bench/e2e's
	// fleet.round.hotspots_per_round), and BenchmarkHotspotOrder times the
	// order a reader builds from it.
	b.ReportMetric(float64(hotspots)/float64(b.N), "hotspots/round")
}

// BenchmarkSnapshotFill measures what the round no longer pays: the first
// ViewSnapshot of a freshly published 4,096-host generation, which fills the
// legacy Predicted and Latest maps from the columns (a recycled generation's
// maps, so warm it allocates nothing). The round that publishes each
// generation runs with the timer stopped.
func BenchmarkSnapshotFill(b *testing.B) {
	ctl := traceFleet4k(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if _, err := ctl.RunRound(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		ctl.ViewSnapshot(func(*Snapshot) {})
	}
}

// BenchmarkHotspotOrder measures what the round no longer pays either: the
// first ordered read (Snapshot.Hotspots) of a freshly published 4,096-host
// generation, which sorts its hot set into storage recycled with the
// generation, so warm it allocates nothing. Only the GET of the hotspots and
// tests ask for the order. The round that publishes each generation runs
// with the timer stopped; BenchmarkSnapshotFill times the maps alone.
func BenchmarkHotspotOrder(b *testing.B) {
	ctl := traceFleet4k(b)
	b.ReportAllocs()
	b.ResetTimer()
	hotspots := 0
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if _, err := ctl.RunRound(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		ctl.ViewColumns(func(s *Snapshot) { hotspots += len(s.Hotspots()) })
	}
	b.ReportMetric(float64(hotspots)/float64(b.N), "hotspots/round")
}

// BenchmarkIngestDrain measures the way a source's reading takes into the
// host table: one 4,096-host sweep in table order per round, as a source's
// round emits it, through the source emitter into the slots, then the
// (empty) drain of pushes. Warm, it allocates nothing.
func BenchmarkIngestDrain(b *testing.B) {
	const hosts = 4096
	src := &sweepSource{sweep: make([]Reading, hosts)}
	ids := make([]string, hosts)
	for i := range src.sweep {
		ids[i] = fmt.Sprintf("h%04d", i)
		src.sweep[i] = Reading{HostID: ids[i], TempC: 40 + float64(i%30), Util: 0.5}
	}
	ctl, err := NewWithSource(DefaultConfig(), src, syntheticStable)
	if err != nil {
		b.Fatal(err)
	}
	ctl.mu.Lock()
	ctl.resetTable(ids)
	ctl.mu.Unlock()
	round := func() {
		var rs roundState
		ctl.mu.Lock()
		if err := ctl.advanceSource(&rs); err != nil {
			b.Fatal(err)
		}
		ctl.drain(rs.now)
		ctl.mu.Unlock()
	}
	round()
	round()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*hosts), "ns/reading")
}

// benchPlaceFleet assembles the 16,384-host placement benchmark fleet on
// the synthetic predictor, with hosts fat enough that capacity never binds —
// the benchmark must measure the placement plane (ranking, shortlist,
// batched prediction), not capacity exhaustion. One warm round publishes the
// snapshot the plan ranks against.
func benchPlaceFleet(b *testing.B) *Controller {
	b.Helper()
	cfg := DefaultConfig()
	cfg.Racks = 64
	cfg.HostsPerRack = 256
	cfg.Seed = benchSeed
	cfg.HostShape.Cores = 1 << 20
	cfg.HostShape.MemoryGB = 1 << 24
	ctl, err := New(cfg, syntheticStable)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := ctl.RunRound(); err != nil {
		b.Fatal(err)
	}
	return ctl
}

// BenchmarkPlaceBatch measures the batch placement plane. sched-place is
// bench/e2e's sched_place below HTTP (see benchSchedPlace); each batch-N
// sub-benchmark places N uniquely-named VMs per PlaceBatch call on a
// 16,384-host fleet, sharing one candidate budget across the queue.
func BenchmarkPlaceBatch(b *testing.B) {
	b.Run("sched-place", benchSchedPlace)
	var ctl *Controller
	var seq int64
	specs := func(n int) []workload.VMSpec {
		out := make([]workload.VMSpec, n)
		for i := range out {
			seq++
			out[i] = HeavyVMSpec(fmt.Sprintf("bench-%09d", seq), 1, 2)
		}
		return out
	}
	for _, size := range []int{1, 64, 1024} {
		b.Run(fmt.Sprintf("batch-%d", size), func(b *testing.B) {
			if ctl == nil {
				ctl = benchPlaceFleet(b)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				decs, err := ctl.PlaceBatch(specs(size))
				if err != nil {
					b.Fatal(err)
				}
				for _, dec := range decs {
					if dec.Status != Placed {
						b.Fatalf("placement %s (%s): %s", dec.Status, dec.Code, dec.Reason)
					}
				}
			}
			if d := b.Elapsed().Seconds(); d > 0 {
				b.ReportMetric(float64(size*b.N)/d, "vms/s")
			}
		})
	}
}

// benchSchedPlace is sched_place's shape without the HTTP exchange: a
// 16×64 simulated fleet kept at two VMs per host, the ψ_stable model behind
// StableBatchPredictor, and 16 requests per PlaceBatch call of one or two
// vCPUs whose tasks hold Constant loads of 30–80 %. Outside the timer the
// oldest VMs beyond two per host are removed after every call and a round
// runs every 32 calls, so the calls meet a churning fleet whose folds go
// stale where VMs land and leave. It reports ns per VM and B/op.
func benchSchedPlace(b *testing.B) {
	const perCall, roundEvery = 16, 32
	model := tinyStableModel(b)
	cfg := DefaultConfig()
	cfg.Racks, cfg.HostsPerRack = 16, 64
	cfg.Seed = benchSeed
	ctl, err := New(cfg, StableBatchPredictor(model, cfg.HorizonS))
	if err != nil {
		b.Fatal(err)
	}
	liveMax := 2 * len(ctl.Hosts())
	rng := mathx.SplitStable(benchSeed, "bench-sched-place")
	seq := 0
	batch := func() []workload.VMSpec {
		specs := make([]workload.VMSpec, perCall)
		for i := range specs {
			vcpus := rng.IntBetween(1, 2)
			specs[i] = workload.VMSpec{ID: fmt.Sprintf("vm-%08d", seq), Config: vmm.VMConfig{VCPUs: vcpus, MemoryGB: float64(2 * vcpus)}}
			for k := 0; k < vcpus; k++ {
				frac := rng.Uniform(0.3, 0.8)
				specs[i].Tasks = append(specs[i].Tasks, workload.TaskSpec{
					Task:    vmm.Task{ID: fmt.Sprintf("vm-%08d-t%d", seq, k), Class: vmm.CPUBound, CPUFraction: frac, MemGB: 0.5},
					Profile: workload.Constant{Level: frac},
				})
			}
			seq++
		}
		return specs
	}
	var live []string
	calls := 0
	settle := func(decs []PlacementDecision) {
		for _, d := range decs {
			if d.Status != Placed {
				b.Fatalf("placement %s (%s): %s", d.Status, d.Code, d.Reason)
			}
			live = append(live, d.VMID)
		}
		for ; len(live) > liveMax; live = live[1:] {
			if err := ctl.RemoveVM(live[0]); err != nil {
				b.Fatal(err)
			}
		}
		if calls++; calls%roundEvery == 0 {
			if _, err := ctl.RunRound(); err != nil {
				b.Fatal(err)
			}
		}
	}
	if _, err := ctl.RunRound(); err != nil {
		b.Fatal(err)
	}
	for len(live) < liveMax {
		decs, err := ctl.PlaceBatch(batch())
		if err != nil {
			b.Fatal(err)
		}
		settle(decs)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		specs := batch()
		b.StartTimer()
		decs, err := ctl.PlaceBatch(specs)
		b.StopTimer()
		if err != nil {
			b.Fatal(err)
		}
		settle(decs)
		b.StartTimer()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(perCall*b.N), "ns/VM")
}
