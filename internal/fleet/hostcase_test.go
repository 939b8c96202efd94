package fleet

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"vmtherm/internal/core"
	"vmtherm/internal/dataset"
	"vmtherm/internal/mathx"
	"vmtherm/internal/substrate"
	"vmtherm/internal/telemetry"
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

// caseRow folds a case the way the controller folds its rows, every task
// at p's TaskDemand, at the case's ambient.
func caseRow(t testing.TB, p Predictor, cse workload.Case) HostRow {
	t.Helper()
	row := HostRow{AmbientC: cse.AmbientC}
	for v := range cse.VMs {
		for k := range cse.VMs[v].Tasks {
			d, err := p.TaskDemand(&cse.VMs[v].Tasks[k])
			if err != nil {
				t.Fatal(err)
			}
			row.Fold.AddTask(d, &cse.VMs[v].Tasks[k].Task)
		}
		row.Fold.AddVM(cse.VMs[v].Config)
	}
	return row
}

// predictCase scores one case through p, on the case's own host and fans.
func predictCase(t testing.TB, p Predictor, cse workload.Case) float64 {
	t.Helper()
	out := make([]float64, 1)
	if err := p.Score(cse.Host, cse.FanCount, []HostRow{caseRow(t, p, cse)}, out); err != nil {
		t.Fatal(err)
	}
	return out[0]
}

// scoredCases rebuilds from scratch, with substrate.HostStateCase, the case
// each row of the batch the simulated controller c is scoring stands for —
// rows may be any chunk of it. A placement row is its candidate host at the
// host's inlet plus the wave's VM, taken from placing, the specs of the
// PlaceBatch call in flight; an anchor row is its host's deployment at the
// inlet bucket's center. Placement says which of the two the batch is. It
// runs on the scoring goroutine, so it reports by error, not t.Fatal.
func scoredCases(c *Controller, placing []workload.VMSpec, rows []HostRow) (cases []workload.Case, placement bool, err error) {
	off := -1
	for k := range c.missRows {
		if &c.missRows[k] == &rows[0] {
			off = k
		}
	}
	if off < 0 {
		return nil, false, errors.New("scored rows are not the controller's batch")
	}
	placement = len(c.waveRows) > 0 && &c.missRows[0] == &c.waveRows[0]
	for j := off; j < off+len(rows); j++ {
		var slot int
		var cand *workload.VMSpec
		var amb float64
		if placement {
			slot = int(c.waveEntry[j])
			for _, wv := range c.waveVMs {
				if wv.lo <= j && j < wv.hi {
					cand = &placing[wv.spec]
				}
			}
			if cand == nil {
				return nil, true, fmt.Errorf("placement row %d is in no VM's window", j)
			}
			amb = c.sub.Inlet(slot)
		} else {
			slot = c.missIdx[j]
			_, amb = c.cache.Quant().Ambient(c.sub.Inlet(slot))
		}
		cse, err := substrate.HostStateCase(c.sub.Host(slot), c.cfg.FanCount, amb, cand)
		if err != nil {
			return nil, placement, err
		}
		cases = append(cases, cse)
	}
	return cases, placement, nil
}

// TestHostCaseMatchesHostStateCase is the row differential of the package's
// one host → row builder: over a seeded sequence of PlaceBatch, RemoveVM,
// migration-producing rounds and plain rounds — warm, and cold with the
// anchor cache invalidated before every round so every occupied host misses
// — every row the predictor scores, placement windows and anchor misses
// alike, finishes to the features dataset.Encode gives a fresh
// substrate.HostStateCase of the same host at the same instant (plus the
// candidate VM for a placement row), bit for bit. A fold that outlived any
// change of the deployment — a placement, a migration, a removal, a tick
// that drives a task — fails it; the sequence includes two PlaceBatch calls
// in one round with a RemoveVM between them. The fleet is large enough,
// and its worker bounds above one, that cold rounds fill distinct slots of
// the fold column concurrently and score the rows in concurrent chunks.
func TestHostCaseMatchesHostStateCase(t *testing.T) {
	const horizonS = 1800
	for _, arm := range []string{"warm", "cold"} {
		cold := arm == "cold"
		t.Run(arm, func(t *testing.T) {
			cfg := testConfig()
			cfg.Racks, cfg.HostsPerRack = 4, 32
			cfg.AnchorWorkers, cfg.PhysWorkers = 4, 4
			cfg.MaxMigrationsPerRound = 2
			var placing []workload.VMSpec
			var placeRows, anchorRows atomic.Int64
			var c *Controller
			predict := Predictor{
				TaskDemand: func(ts *workload.TaskSpec) (float64, error) { return dataset.TaskDemand(ts, horizonS) },
				Score: func(shape vmm.HostConfig, fans int, rows []HostRow, out []float64) error {
					cases, placement, err := scoredCases(c, placing, rows)
					if err != nil {
						return err
					}
					got := make([]float64, dataset.NumFeatures())
					for k, cse := range cases {
						want, err := dataset.Encode(cse, horizonS)
						if err != nil {
							return err
						}
						if err := rows[k].Fold.Finish(shape, fans, rows[k].AmbientC, got); err != nil {
							return err
						}
						for i := range want {
							if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
								return fmt.Errorf("round %d, placement %v: %s's row has %s = %v, Encode(HostStateCase) %v",
									c.round, placement, cse.Name, dataset.FeatureNames()[i], got[i], want[i])
							}
						}
					}
					if placement {
						placeRows.Add(int64(len(rows)))
					} else {
						anchorRows.Add(int64(len(rows)))
					}
					return syntheticStable.Score(shape, fans, rows, out)
				},
			}
			c, err := New(cfg, predict)
			if err != nil {
				t.Fatal(err)
			}
			seedHotHost(t, c) // r0-h0 runs hot: rounds propose and apply migrations

			rng := mathx.SplitStable(2016, "host-case")
			seq, moves := 0, 0
			batch := func() {
				placing = make([]workload.VMSpec, rng.IntBetween(1, 12))
				for i := range placing {
					placing[i] = dynamicSpec(rng, fmt.Sprintf("vm-%03d", seq))
					seq++
				}
				if _, err := c.PlaceBatch(placing); err != nil {
					t.Fatal(err)
				}
				placing = nil
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
					if cold {
						c.InvalidateAnchorCache()
					}
					rep, err := c.RunRound()
					if err != nil {
						t.Fatal(err)
					}
					if cold && rep.AnchorHits != 0 {
						t.Fatalf("cold round %d served %d cached anchors", rep.Round, rep.AnchorHits)
					}
					moves += rep.AppliedMoves
				}
				for n := rng.Intn(3); n > 0; n-- {
					remove()
				}
			}
			if placeRows.Load() == 0 || anchorRows.Load() == 0 || moves == 0 {
				t.Fatalf("compared %d placement rows, %d anchor rows over %d migrations: not every path was exercised",
					placeRows.Load(), anchorRows.Load(), moves)
			}
			t.Logf("%d placement rows, %d anchor rows, %d migrations", placeRows.Load(), anchorRows.Load(), moves)
		})
	}
}

// TestUtilizationRowMatchesEncode: a source-driven anchor row — one VM of
// one task per core at the observed utilization, the observed share of
// memory active — finishes to dataset.Encode of the case that load
// describes, bit for bit, over a grid of loads that includes both clamps
// and the 1 GB memory floor.
func TestUtilizationRowMatchesEncode(t *testing.T) {
	c, err := NewWithSource(DefaultConfig(), &gridSource{}, syntheticStable)
	if err != nil {
		t.Fatal(err)
	}
	shape := c.cfg.HostShape
	got := make([]float64, dataset.NumFeatures())
	for _, util := range []float64{-0.5, 0, 0.013, 0.25, 0.5021, 0.999, 1, 1.7} {
		for _, mem := range []float64{-1, 0, 0.001, 0.015, 0.3, 1, 2} {
			u, m := telemetry.Clamp01(util), telemetry.Clamp01(mem)
			memGB := max(m*shape.MemoryGB, 1)
			vm := workload.VMSpec{ID: "observed", Config: vmm.VMConfig{VCPUs: shape.Cores, MemoryGB: memGB}}
			for k := 0; k < shape.Cores; k++ {
				vm.Tasks = append(vm.Tasks, workload.TaskSpec{Task: vmm.Task{
					ID: fmt.Sprintf("observed-t%d", k), Class: vmm.CPUBound, CPUFraction: u, MemGB: memGB / float64(shape.Cores) / 2,
				}})
			}
			cse := workload.Case{Name: "observed", Host: shape, FanCount: c.cfg.FanCount, AmbientC: c.cfg.SourceAmbientC, VMs: []workload.VMSpec{vm}}
			want, err := dataset.Encode(cse, c.cfg.HorizonS)
			if err != nil {
				t.Fatal(err)
			}
			row := c.utilizationRow(util, mem)
			if err := row.Fold.Finish(shape, c.cfg.FanCount, row.AmbientC, got); err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("util %v mem %v: %s = %v, Encode %v", util, mem, dataset.FeatureNames()[i], got[i], want[i])
				}
			}
		}
	}
}

// tinyStableModel trains a small ψ_stable model, enough to run the real
// encoder + SVM behind StableBatchPredictor.
func tinyStableModel(t testing.TB) *core.StablePredictor {
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

// TestShardedMemoPredictorMatchesPlainEncode: StableBatchPredictor over
// the memoised folds — resident folds from the fold column, the
// candidate's demands once per VM per wave, rows scored in four concurrent
// chunks whose boundaries cut through candidate windows (under -race: the
// chunks share nothing) — decides bit for bit like a predictor that
// rebuilds every row's case with substrate.HostStateCase and encodes it
// with dataset.EncodeInto on one goroutine.
func TestShardedMemoPredictorMatchesPlainEncode(t *testing.T) {
	model := tinyStableModel(t)
	const horizonS = 1800
	var placing []workload.VMSpec
	var c *Controller
	plain := Predictor{
		TaskDemand: func(ts *workload.TaskSpec) (float64, error) { return dataset.TaskDemand(ts, horizonS) },
		Score: func(_ vmm.HostConfig, _ int, rows []HostRow, out []float64) error {
			cases, _, err := scoredCases(c, placing, rows)
			if err != nil {
				return err
			}
			feats := make([][]float64, len(cases))
			for i, cse := range cases {
				feats[i] = make([]float64, dataset.NumFeatures())
				if err := dataset.EncodeInto(cse, horizonS, feats[i]); err != nil {
					return err
				}
			}
			vals, err := model.PredictBatch(feats)
			copy(out, vals)
			return err
		},
	}
	run := func(workers int, predict Predictor) []PlacementDecision {
		cfg := testConfig()
		cfg.Racks, cfg.HostsPerRack = 4, 16
		cfg.AnchorWorkers = workers
		var err error
		if c, err = New(cfg, predict); err != nil {
			t.Fatal(err)
		}
		rng := mathx.SplitStable(2016, "sharded-memo")
		var all []PlacementDecision
		for b := 0; b < 6; b++ {
			// 18 VMs: a 14-host window each, 252 rows, 63 per shard — shard
			// boundaries fall inside windows.
			placing = make([]workload.VMSpec, 18)
			for i := range placing {
				placing[i] = dynamicSpec(rng, fmt.Sprintf("vm-%d-%02d", b, i))
			}
			decs, err := c.PlaceBatch(placing)
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
			t.Fatalf("decision %d: sharded folds %+v, plain encode %+v", i, got[i], want[i])
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
// PlaceBatch on a 16×64 fleet (114/op: the decisions, and what starting 16
// VMs costs the substrate; the predictor writes into the controller's
// slice) plus 10%. Before hosts memoised their deployment views the same
// call made 3,479: a deep copy of the deployment per (VM, candidate host)
// pair.
const warmPlaceAllocCeiling = 125

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
	if _, err := runRounds(c, 2); err != nil {
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

// TestStableBatchScratchSurvivesGC: StableBatchPredictor keeps its scratch
// across garbage collections and writes into the caller's slice. After two
// runtime.GC() calls between calls of one batch size (a sync.Pool would
// have dropped it by then), a call allocates nothing.
func TestStableBatchScratchSurvivesGC(t *testing.T) {
	model := tinyStableModel(t)
	cases, err := workload.GenerateCases(workload.DefaultGenOptions(), 11, "gc", 64)
	if err != nil {
		t.Fatal(err)
	}
	predict := StableBatchPredictor(model, 1800)
	rows := make([]HostRow, len(cases))
	for i, cse := range cases {
		rows[i] = caseRow(t, predict, cse)
	}
	shape, fans := cases[0].Host, cases[0].FanCount
	out := make([]float64, len(rows))
	if err := predict.Score(shape, fans, rows, out); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	for i := 0; i < 3; i++ {
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&before)
		err := predict.Score(shape, fans, rows, out)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if n, bytes := after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc; n != 0 {
			t.Fatalf("call %d after two collections: %d allocations, %d B; want none", i, n, bytes)
		}
	}
}
