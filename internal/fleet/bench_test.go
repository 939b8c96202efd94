package fleet

import (
	"fmt"
	"testing"

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

// BenchmarkIngestDrain measures the way a reading takes into the host table:
// one 4,096-host sweep in table order, as a source's round emits it, pushed
// through the emit sink and drained into the slots. Warm, it allocates
// nothing.
func BenchmarkIngestDrain(b *testing.B) {
	const hosts = 4096
	ctl, err := NewWithSource(DefaultConfig(), &gridSource{}, syntheticStable)
	if err != nil {
		b.Fatal(err)
	}
	sweep := make([]Reading, hosts)
	ids := make([]string, hosts)
	for i := range sweep {
		ids[i] = fmt.Sprintf("h%04d", i)
		sweep[i] = Reading{HostID: ids[i], TempC: 40 + float64(i%30), Util: 0.5}
	}
	ctl.mu.Lock()
	ctl.resetTable(ids)
	ctl.mu.Unlock()
	emit := *ctl.emit.Load()
	round := func(at float64) {
		for j := range sweep {
			sweep[j].AtS = at
			emit(sweep[j])
		}
		ctl.mu.Lock()
		ctl.drain(at)
		ctl.mu.Unlock()
	}
	round(-2) // both buffers grow to a sweep once
	round(-1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round(float64(i))
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

// BenchmarkPlaceBatch measures the batch placement plane at 16,384 hosts:
// each batch-N sub-benchmark places N uniquely-named VMs per PlaceBatch
// call, sharing one candidate budget across the queue.
func BenchmarkPlaceBatch(b *testing.B) {
	ctl := benchPlaceFleet(b)
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
