package fleet

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"vmtherm/internal/cluster"
	"vmtherm/internal/core"
	"vmtherm/internal/dataset"
	"vmtherm/internal/mathx"
	"vmtherm/internal/vmm"
	"vmtherm/internal/workload"
)

// dynamicSpec draws a VM whose tasks follow sines, so every tick rewrites
// their CPU fractions and a stale deployment view would show.
func dynamicSpec(rng *mathx.RNG, id string) workload.VMSpec {
	vcpus := rng.IntBetween(1, 3)
	spec := workload.VMSpec{ID: id, Config: vmm.VMConfig{VCPUs: vcpus, MemoryGB: float64(2 * vcpus)}}
	// Task ids descend while deployment order ascends: the view must sort.
	for k := vcpus - 1; k >= 0; k-- {
		base := rng.Uniform(0.3, 0.7)
		spec.Tasks = append(spec.Tasks, workload.TaskSpec{
			Task:    vmm.Task{ID: fmt.Sprintf("%s-t%d", id, k), Class: vmm.TaskClass(1 + k%4), CPUFraction: base, MemGB: 0.5},
			Profile: workload.Sine{Base: base, Amplitude: 0.25, Period: rng.Uniform(40, 400), Phase: rng.Uniform(0, 6)},
		})
	}
	return spec
}

// TestHostCaseMatchesHostStateCase is the differential test of the package's
// one host → Case builder: over a seeded sequence of PlaceBatch, RemoveVM,
// migration-producing rounds and plain rounds — cache on and off — every
// Case the predictor receives, placement windows and anchor misses alike,
// is reflect.DeepEqual to a fresh cluster.HostStateCase of the same host at
// the same instant. A view that outlived any change of the deployment — a
// placement, a migration, a removal, a tick — fails it; the sequence
// includes two PlaceBatch calls in one round with a RemoveVM between them.
func TestHostCaseMatchesHostStateCase(t *testing.T) {
	for _, cached := range []bool{true, false} {
		t.Run(fmt.Sprintf("cache=%v", cached), func(t *testing.T) {
			cfg := testConfig()
			cfg.MaxMigrationsPerRound = 2
			if !cached {
				cfg.AnchorCacheDisabled = true
			}
			submitted := map[string]workload.VMSpec{}
			var placeCases, anchorCases, reused int
			var c *Controller
			c, err := New(cfg, func(cases []workload.Case) ([]float64, error) {
				for _, got := range cases {
					sh := c.sim.hosts[strings.TrimPrefix(got.Name, "state:")]
					if sh == nil {
						t.Fatalf("case %q names no host", got.Name)
					}
					inlet, err := c.sim.inletAt(sh)
					if err != nil {
						t.Fatal(err)
					}
					// The last VM is a candidate iff it is not deployed yet.
					var cand *workload.VMSpec
					last := got.VMs[len(got.VMs)-1].ID
					if _, deployed := c.sim.vmHost[last]; !deployed {
						spec, ok := submitted[last]
						if !ok {
							t.Fatalf("case %q ends in unknown vm %q", got.Name, last)
						}
						cand = &spec
						placeCases++
					} else {
						anchorCases++
						if c.cache != nil {
							_, inlet = c.cache.Quant().Ambient(inlet)
						}
					}
					want, err := cluster.HostStateCase(sh.host, c.cfg.FanCount, inlet, cand)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("round %d: case for %s diverged from HostStateCase:\n got %+v\nwant %+v", c.round, got.Name, got, want)
					}
				}
				return syntheticStable(cases)
			})
			if err != nil {
				t.Fatal(err)
			}
			if (c.cache != nil) != cached {
				t.Fatalf("cache enabled = %v, want %v", c.cache != nil, cached)
			}
			seedHotHost(t, c) // r0-h0 runs hot: rounds propose and apply migrations

			rng := mathx.SplitStable(2016, "host-case")
			seq, moves := 0, 0
			batch := func() {
				specs := make([]workload.VMSpec, rng.IntBetween(1, 12))
				for i := range specs {
					specs[i] = dynamicSpec(rng, fmt.Sprintf("vm-%03d", seq))
					submitted[specs[i].ID] = specs[i]
					seq++
				}
				for _, sh := range c.sim.byPos {
					if sh.viewOK {
						reused++
					}
				}
				if _, err := c.PlaceBatch(specs); err != nil {
					t.Fatal(err)
				}
			}
			remove := func() {
				live := slices.DeleteFunc(liveVMIDs(c), func(id string) bool { return strings.HasPrefix(id, "hot-") })
				if len(live) == 0 {
					return
				}
				if err := c.RemoveVM(live[rng.Intn(len(live))]); err != nil {
					t.Fatal(err)
				}
			}
			for step := 0; step < 60; step++ {
				batch()
				if rng.Bool(0.5) {
					remove()
					batch() // same round, after a removal
				}
				for n := rng.IntBetween(1, 2); n > 0; n-- {
					rep, err := c.RunRound()
					if err != nil {
						t.Fatal(err)
					}
					moves += rep.AppliedMoves
				}
				for n := rng.Intn(3); n > 0; n-- {
					remove()
				}
			}
			if placeCases == 0 || anchorCases == 0 || moves == 0 || reused == 0 {
				t.Fatalf("compared %d placement cases, %d anchor cases over %d migrations with %d views still valid at a call: not every path was exercised",
					placeCases, anchorCases, moves, reused)
			}
			t.Logf("%d placement cases, %d anchor cases, %d migrations, %d reusable views", placeCases, anchorCases, moves, reused)
		})
	}
}

// tinyStableModel trains a small ψ_stable model, enough to run the real
// encoder + SVM behind StableBatchPredictor.
func tinyStableModel(t *testing.T) *core.StablePredictor {
	t.Helper()
	cases, err := workload.GenerateCases(workload.DefaultGenOptions(), 7, "aq", 24)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := dataset.Build(context.Background(), cases, dataset.DefaultBuildOptions(7))
	if err != nil {
		t.Fatal(err)
	}
	model, err := core.TrainStable(context.Background(), recs, core.FastStableConfig())
	if err != nil {
		t.Fatal(err)
	}
	return model
}

// TestShardedMemoPredictorMatchesPlainEncode: StableBatchPredictor with its
// pooled profile memo, sharded four ways so chunk boundaries cut through
// candidate windows and chunks run concurrently (under -race: the memos
// share nothing), decides bit for bit like a predictor that encodes every
// case with the memo-less dataset.EncodeInto on one goroutine.
func TestShardedMemoPredictorMatchesPlainEncode(t *testing.T) {
	model := tinyStableModel(t)
	const horizonS = 1800
	plain := func(cases []workload.Case) ([]float64, error) {
		rows := make([][]float64, len(cases))
		for i, cse := range cases {
			rows[i] = make([]float64, dataset.NumFeatures())
			if err := dataset.EncodeInto(cse, horizonS, rows[i]); err != nil {
				return nil, err
			}
		}
		return model.PredictBatch(rows)
	}
	run := func(workers int, predict BatchCasePredictor) []PlacementDecision {
		cfg := testConfig()
		cfg.Racks, cfg.HostsPerRack = 4, 16
		cfg.AnchorWorkers = workers
		c, err := New(cfg, predict)
		if err != nil {
			t.Fatal(err)
		}
		rng := mathx.SplitStable(2016, "sharded-memo")
		var all []PlacementDecision
		for b := 0; b < 6; b++ {
			// 18 VMs: a 14-host window each, 252 cases, 63 per shard — shard
			// boundaries fall inside windows.
			specs := make([]workload.VMSpec, 18)
			for i := range specs {
				specs[i] = dynamicSpec(rng, fmt.Sprintf("vm-%d-%02d", b, i))
			}
			decs, err := c.PlaceBatch(specs)
			if err != nil {
				t.Fatal(err)
			}
			all = append(all, decs...)
			if _, err := c.RunRound(); err != nil {
				t.Fatal(err)
			}
		}
		return all
	}
	want := run(1, plain)
	got := run(4, StableBatchPredictor(model, horizonS))
	placed := 0
	for i := range want {
		if got[i].VMID != want[i].VMID || got[i].Status != want[i].Status || got[i].HostID != want[i].HostID ||
			math.Float64bits(got[i].PredictedStableC) != math.Float64bits(want[i].PredictedStableC) {
			t.Fatalf("decision %d: sharded memo %+v, plain encode %+v", i, got[i], want[i])
		}
		if want[i].Status == Placed {
			placed++
		}
	}
	if placed < len(want)/2 {
		t.Fatalf("only %d of %d requests placed: the comparison is mostly rejections", placed, len(want))
	}
}

// warmPlaceAllocCeiling is the measured allocation count of one warm 16-VM
// PlaceBatch on a 16×64 fleet (150/op: the decisions, one prediction
// slice, and what starting 16 VMs costs the substrate) plus 10%. Before
// hosts memoised their deployment views the same call made 3,479: a deep
// copy of the deployment per (VM, candidate host) pair.
const warmPlaceAllocCeiling = 165

// TestWarmPlaceBatchAllocCeiling pins PlaceBatch's allocations where
// TestWarmRoundZeroAlloc pins the round's, so the per-pair deployment copy
// cannot come back unnoticed.
func TestWarmPlaceBatchAllocCeiling(t *testing.T) {
	cfg := testConfig()
	cfg.Racks, cfg.HostsPerRack = 16, 64
	c, err := New(cfg, syntheticStable)
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range c.Hosts() {
		for k := 0; k < 2; k++ { // two residents per host: views worth copying
			if err := c.PlaceAt(id, HeavyVMSpec(fmt.Sprintf("res-%04d-%d", i, k), 1, 2)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := c.Run(2); err != nil {
		t.Fatal(err)
	}
	const runs = 20
	rng := mathx.SplitStable(2016, "place-allocs")
	batches := make([][]workload.VMSpec, runs+2) // a warm-up, AllocsPerRun's own warm-up, the runs
	for b := range batches {
		batches[b] = make([]workload.VMSpec, 16)
		for i := range batches[b] {
			batches[b][i] = streamSpec(rng, fmt.Sprintf("vm-%02d-%02d", b, i))
		}
	}
	next := 0
	place := func() {
		decs, err := c.PlaceBatch(batches[next])
		next++
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range decs {
			if d.Status != Placed {
				t.Fatalf("warm placement %+v", d)
			}
		}
	}
	place()
	allocs := testing.AllocsPerRun(runs, place)
	t.Logf("warm 16-VM PlaceBatch on 16×64: %.1f allocs/op (ceiling %d)", allocs, warmPlaceAllocCeiling)
	if allocs > warmPlaceAllocCeiling {
		t.Fatalf("warm 16-VM PlaceBatch allocates %.1f/op, ceiling %d", allocs, warmPlaceAllocCeiling)
	}
}
