package vmtherm_test

// Benchmark harness: one benchmark per paper artifact. Each bench executes
// the full experiment that regenerates the corresponding figure and reports
// the headline accuracy metric alongside timing, so
//
//	go test -bench=. -benchmem
//
// reproduces the evaluation end to end. cmd/vmtherm-bench renders the same
// experiments as human-readable tables.
//
// Paper targets (ICDCS 2016, Wu et al.):
//   - Fig 1(a): stable prediction, 20 randomized 2–12 VM cases, MSE ≤ 1.10
//   - Fig 1(b): dynamic prediction case study, calibration lowers MSE
//   - Fig 1(c): MSE over Δ_gap × Δ_update with 4 fans, range ≈ 0.70–1.50

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"testing"

	"vmtherm"
	"vmtherm/internal/dataset"
	"vmtherm/internal/engine"
	"vmtherm/internal/experiments"
	"vmtherm/internal/predictclient"
	"vmtherm/internal/predictserver"
	"vmtherm/internal/svm"
	"vmtherm/internal/telemetry"
	"vmtherm/internal/testbed"
	"vmtherm/internal/thermal"
	"vmtherm/internal/workload"
)

// benchSeed keeps benchmark runs reproducible.
const benchSeed = 2016

// reportPredsPerSec reports prediction throughput for a benchmark whose
// every iteration evaluates perOp predictions.
func reportPredsPerSec(b *testing.B, perOp int) {
	if d := b.Elapsed().Seconds(); d > 0 {
		b.ReportMetric(float64(perOp*b.N)/d, "preds/s")
	}
}

// BenchmarkFig1aStablePrediction regenerates Fig. 1(a): train on 160
// simulated experiments, evaluate stable-temperature prediction on 20
// randomized held-out cases with 2–12 VMs. Reports the test MSE
// (paper: within 1.10).
func BenchmarkFig1aStablePrediction(b *testing.B) {
	cfg := experiments.DefaultFig1aConfig(benchSeed)
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig1a(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.MSE, "MSE")
	}
}

// BenchmarkFig1bDynamicCalibration regenerates Fig. 1(b): one dynamic
// 8-VM case study, dynamic prediction with and without calibration.
// Reports both MSEs (paper: calibrated is lower; ≈1.60 in most scenarios).
func BenchmarkFig1bDynamicCalibration(b *testing.B) {
	cfg := experiments.DefaultFig1bConfig(benchSeed)
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig1b(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.WithMSE, "MSE-calibrated")
		b.ReportMetric(res.WithoutMSE, "MSE-uncalibrated")
	}
}

// BenchmarkFig1cGapUpdateSweep regenerates Fig. 1(c): the Δ_gap × Δ_update
// MSE matrix with 4 server fans. Reports the matrix extremes
// (paper: 0.70–1.50 across the sweep).
func BenchmarkFig1cGapUpdateSweep(b *testing.B) {
	cfg := experiments.DefaultFig1cConfig(benchSeed)
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig1c(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		lo, hi := res.MSE[0][0], res.MSE[0][0]
		for _, row := range res.MSE {
			for _, v := range row {
				if v < lo {
					lo = v
				}
				if v > hi {
					hi = v
				}
			}
		}
		b.ReportMetric(lo, "MSE-min")
		b.ReportMetric(hi, "MSE-max")
	}
}

// BenchmarkAblationLambda sweeps the calibration learning rate λ (Abl. A).
func BenchmarkAblationLambda(b *testing.B) {
	cfg := experiments.DefaultFig1bConfig(benchSeed)
	cfg.TrainCases = 48
	lambdas := []float64{0, 0.2, 0.4, 0.6, 0.8, 1.0}
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunAblationLambda(context.Background(), cfg, lambdas, 6)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.MSEs[0], "MSE-lambda0")
		b.ReportMetric(res.MSEs[4], "MSE-lambda0.8")
	}
}

// BenchmarkAblationCurveDelta sweeps the Eq. (3) curvature δ (Abl. B).
func BenchmarkAblationCurveDelta(b *testing.B) {
	cfg := experiments.DefaultFig1bConfig(benchSeed)
	cfg.TrainCases = 48
	deltas := []float64{5, 15, 30, 60, 120}
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunAblationCurveDelta(context.Background(), cfg, deltas, 6)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.MSEs[2], "MSE-delta30")
	}
}

// BenchmarkAblationBaselines compares the SVM against the task-profile, RC,
// linear and mean baselines on one split (Abl. C).
func BenchmarkAblationBaselines(b *testing.B) {
	cfg := experiments.DefaultFig1aConfig(benchSeed)
	cfg.TrainCases = 96
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunAblationBaselines(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range res.Rows {
			b.ReportMetric(row.MSE, "MSE-"+row.Name)
		}
	}
}

// BenchmarkAblationFans measures prediction error per fan count (Abl. D).
func BenchmarkAblationFans(b *testing.B) {
	cfg := experiments.DefaultFig1aConfig(benchSeed)
	cfg.TrainCases = 96
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunAblationFans(context.Background(), cfg, []int{1, 2, 4, 6, 8}, 6)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.MSEs[2], "MSE-4fans")
	}
}

// --- Micro-benchmarks for the substrates ---

// BenchmarkThermalAdvance measures one simulated second of the server
// thermal model, the inner loop of every experiment.
func BenchmarkThermalAdvance(b *testing.B) {
	srv, err := thermal.NewServer(thermal.DefaultServerParams())
	if err != nil {
		b.Fatal(err)
	}
	srv.SetLoad(0.7, 0.3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := srv.Advance(1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRigRun measures one full 1800 s simulated experiment.
func BenchmarkRigRun(b *testing.B) {
	opts := workload.DefaultGenOptions()
	c, err := workload.GenerateCase(opts, benchSeed, "bench")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rig, err := testbed.New(c, testbed.Options{Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := rig.Run(testbed.DefaultRunConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDatasetBuild measures parallel dataset generation for 32 cases.
func BenchmarkDatasetBuild(b *testing.B) {
	cases, err := workload.GenerateCases(workload.DefaultGenOptions(), benchSeed, "ds", 32)
	if err != nil {
		b.Fatal(err)
	}
	opts := dataset.DefaultBuildOptions(benchSeed)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dataset.Build(context.Background(), cases, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSVMTrain measures ε-SVR training on a 160×16 dataset.
func BenchmarkSVMTrain(b *testing.B) {
	cases, err := workload.GenerateCases(workload.DefaultGenOptions(), benchSeed, "svm", 160)
	if err != nil {
		b.Fatal(err)
	}
	recs, err := dataset.Build(context.Background(), cases, dataset.DefaultBuildOptions(benchSeed))
	if err != nil {
		b.Fatal(err)
	}
	x, y := dataset.FeaturesAndTargets(recs)
	scaler, err := svm.NewScaler(-1, 1)
	if err != nil {
		b.Fatal(err)
	}
	if err := scaler.Fit(x); err != nil {
		b.Fatal(err)
	}
	xs, err := scaler.TransformAll(x)
	if err != nil {
		b.Fatal(err)
	}
	params := svm.TrainParams{Kernel: svm.Kernel{Type: svm.RBF, Gamma: 0.1}, C: 16, Epsilon: 0.1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := svm.Train(xs, y, params); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSVMPredict measures single-record prediction latency, the
// operation a deployed predictd serves per request.
func BenchmarkSVMPredict(b *testing.B) {
	ctx := context.Background()
	cases, err := vmtherm.GenerateCases(vmtherm.DefaultGenOptions(), benchSeed, "pl", 48)
	if err != nil {
		b.Fatal(err)
	}
	recs, err := vmtherm.BuildDataset(ctx, cases, vmtherm.DefaultBuildOptions(benchSeed))
	if err != nil {
		b.Fatal(err)
	}
	model, err := vmtherm.TrainStable(ctx, recs, vmtherm.FastStableConfig())
	if err != nil {
		b.Fatal(err)
	}
	features := recs[0].Features
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := model.PredictFeatures(features); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStableBatch compares fleet-scale batch prediction against the
// naive loop of single Predict calls it replaces. The "looped-single" and
// "batch-64" sub-benchmarks evaluate the same 64 rows; the batch path goes
// through StablePredictor.PredictBatch (shared scaled-feature buffers,
// flattened support vectors, blocked distance pass, table-driven exp) and
// must sustain >= 2x the preds/s of the loop.
func BenchmarkStableBatch(b *testing.B) {
	ctx := context.Background()
	cases, err := vmtherm.GenerateCases(vmtherm.DefaultGenOptions(), benchSeed, "bb", 64)
	if err != nil {
		b.Fatal(err)
	}
	recs, err := vmtherm.BuildDataset(ctx, cases, vmtherm.DefaultBuildOptions(benchSeed))
	if err != nil {
		b.Fatal(err)
	}
	model, err := vmtherm.TrainStable(ctx, recs, vmtherm.FastStableConfig())
	if err != nil {
		b.Fatal(err)
	}
	const batch = 64
	rows := make([][]float64, batch)
	for i := range rows {
		rows[i] = recs[i%len(recs)].Features
	}

	b.Run("looped-single", func(b *testing.B) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, row := range rows {
				if _, err := model.PredictFeatures(row); err != nil {
					b.Fatal(err)
				}
			}
		}
		reportPredsPerSec(b, batch)
	})
	b.Run("batch-64", func(b *testing.B) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := model.PredictBatch(rows); err != nil {
				b.Fatal(err)
			}
		}
		reportPredsPerSec(b, batch)
	})
}

// BenchmarkServerBatchThroughput measures end-to-end served predictions per
// second through POST /v1/stable/batch — JSON decode, worker-pool dispatch,
// SVM batch kernel, JSON encode — the number a capacity plan for a
// thermal-aware scheduler actually needs.
func BenchmarkServerBatchThroughput(b *testing.B) {
	ctx := context.Background()
	cases, err := vmtherm.GenerateCases(vmtherm.DefaultGenOptions(), benchSeed, "sb", 64)
	if err != nil {
		b.Fatal(err)
	}
	recs, err := vmtherm.BuildDataset(ctx, cases, vmtherm.DefaultBuildOptions(benchSeed))
	if err != nil {
		b.Fatal(err)
	}
	model, err := vmtherm.TrainStable(ctx, recs, vmtherm.FastStableConfig())
	if err != nil {
		b.Fatal(err)
	}
	srv, err := predictserver.New(model)
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client, err := predictclient.New(ts.URL)
	if err != nil {
		b.Fatal(err)
	}

	const batch = 64
	rows := make([][]float64, batch)
	for i := range rows {
		rows[i] = recs[i%len(recs)].Features
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := client.PredictStableBatch(ctx, rows); err != nil {
			b.Fatal(err)
		}
	}
	reportPredsPerSec(b, batch)
}

// benchFleetController assembles the 256-host benchmark fleet: a trained
// fast model, 8 racks, half the machines populated so the anchor pass has
// real work.
func benchFleetController(b *testing.B) (*vmtherm.FleetController, vmtherm.FleetConfig) {
	b.Helper()
	ctx := context.Background()
	cases, err := vmtherm.GenerateCases(vmtherm.DefaultGenOptions(), benchSeed, "fr", 32)
	if err != nil {
		b.Fatal(err)
	}
	recs, err := vmtherm.BuildDataset(ctx, cases, vmtherm.DefaultBuildOptions(benchSeed))
	if err != nil {
		b.Fatal(err)
	}
	model, err := vmtherm.TrainStable(ctx, recs, vmtherm.FastStableConfig())
	if err != nil {
		b.Fatal(err)
	}

	const hosts = 256
	cfg := vmtherm.DefaultFleetConfig()
	cfg.Racks = 8
	cfg.HostsPerRack = hosts / cfg.Racks
	cfg.Seed = benchSeed
	ctl, err := vmtherm.NewFleet(cfg, vmtherm.FleetStablePredictor(model, 1800))
	if err != nil {
		b.Fatal(err)
	}
	// Populate half the fleet so the batch anchor pass has real work.
	opts := vmtherm.DefaultGenOptions()
	opts.VMCountMin, opts.VMCountMax = hosts, hosts
	opts.Host.Cores = 1 << 20
	opts.Host.MemoryGB = 1 << 24
	pool, err := vmtherm.GenerateCase(opts, benchSeed, "fleet-bench")
	if err != nil {
		b.Fatal(err)
	}
	for i, spec := range pool.VMs[:hosts/2] {
		if err := ctl.PlaceAt(ctl.Hosts()[i*2], spec); err != nil {
			b.Fatal(err)
		}
	}
	return ctl, cfg
}

// BenchmarkFleetRound measures one control round of the fleet thermal
// control plane at 256 hosts: Δ_update seconds of simulated physics and
// telemetry, bounded-pipeline drain, per-host session calibration, the
// anchor-cache pass (warm rounds serve ψ_stable anchors from the quantized
// cache; misses fan through the SVM batch kernel), hotspot detection over
// predicted temperatures, and reconciliation — the recurring cost a
// deployment pays per calibration interval. Faster-than-real-time operation
// means ns/op must stay far below Δ_update (15 s).
func BenchmarkFleetRound(b *testing.B) {
	ctl, cfg := benchFleetController(b)
	const hosts = 256
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
}

// benchFleetSim assembles a hosts-sized simulated fleet on the synthetic
// predictor (SVM training at this scale is setup noise, and the point of
// the benchmark is the physics substrate): 32 racks, half the machines
// populated with dynamically profiled VMs so every tick drives real task
// load, plus one warm-up round so the anchor cache and sessions are hot.
func benchFleetSim(b *testing.B, hosts, physWorkers int) *vmtherm.FleetController {
	b.Helper()
	cfg := vmtherm.DefaultFleetConfig()
	cfg.Racks = 32
	cfg.HostsPerRack = hosts / cfg.Racks
	cfg.Seed = benchSeed
	cfg.PhysWorkers = physWorkers
	ctl, err := vmtherm.NewFleet(cfg, vmtherm.FleetSyntheticPredictor(75))
	if err != nil {
		b.Fatal(err)
	}
	opts := vmtherm.DefaultGenOptions()
	opts.VMCountMin, opts.VMCountMax = hosts/2, hosts/2
	opts.Host.Cores = 1 << 20
	opts.Host.MemoryGB = 1 << 24
	opts.Dynamic = true
	pool, err := vmtherm.GenerateCase(opts, benchSeed, "fleet-bench-scale")
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

// BenchmarkSnapshotRead measures the published-snapshot read path at 1024
// hosts. "view" is the scoped copy-on-read borrow (ViewSnapshot) the HTTP
// handlers use — it must be allocation-free, since it hands out the
// epoch-versioned generation instead of cloning three O(hosts) maps the
// way the pre-PR5 Hotspots() did. "borrow" is the unscoped Hotspots()
// borrow (also allocation-free; the cost moved to the writer, which
// retires the escaped generation).
func BenchmarkSnapshotRead(b *testing.B) {
	const hosts = 1024
	cfg := vmtherm.DefaultFleetConfig()
	cfg.MaxHosts = hosts
	readings := make([]vmtherm.FleetReading, hosts)
	for i := range readings {
		readings[i] = vmtherm.FleetReading{
			HostID:  fmt.Sprintf("s%02d-h%03d", i/64, i%64),
			AtS:     float64(i) * 15.0 / hosts,
			TempC:   30 + float64(i%40),
			Util:    float64(i%101) / 100,
			MemFrac: float64(i%53) / 52,
		}
	}
	src, err := vmtherm.NewTraceSource(readings, vmtherm.TraceOptions{Loop: true})
	if err != nil {
		b.Fatal(err)
	}
	ctl, err := vmtherm.NewFleetWithSource(cfg, src, vmtherm.FleetSyntheticPredictor(75))
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := ctl.RunRound(); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("view", func(b *testing.B) {
		var n int
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ctl.ViewSnapshot(func(s *vmtherm.FleetSnapshot) { n = len(s.Predicted) })
		}
		if n != hosts {
			b.Fatalf("view saw %d predictions, want %d", n, hosts)
		}
		if d := b.Elapsed().Seconds(); d > 0 {
			b.ReportMetric(float64(b.N)/d, "reads/s")
		}
	})
	b.Run("borrow", func(b *testing.B) {
		var snap vmtherm.FleetSnapshot
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			snap = ctl.Hotspots()
		}
		if len(snap.Predicted) != hosts {
			b.Fatalf("borrow saw %d predictions, want %d", len(snap.Predicted), hosts)
		}
		if d := b.Elapsed().Seconds(); d > 0 {
			b.ReportMetric(float64(b.N)/d, "reads/s")
		}
	})
}

// benchPlaceFleet assembles the 16,384-host placement benchmark fleet on
// the synthetic predictor, with hosts fat enough that capacity never binds —
// the benchmark must measure the placement plane (ranking, shortlist,
// batched prediction), not capacity exhaustion. One warm round publishes the
// snapshot the plan ranks against.
func benchPlaceFleet(b *testing.B) *vmtherm.FleetController {
	b.Helper()
	cfg := vmtherm.DefaultFleetConfig()
	cfg.Racks = 64
	cfg.HostsPerRack = 256
	cfg.Seed = benchSeed
	cfg.HostShape.Cores = 1 << 20
	cfg.HostShape.MemoryGB = 1 << 24
	ctl, err := vmtherm.NewFleet(cfg, vmtherm.FleetSyntheticPredictor(75))
	if err != nil {
		b.Fatal(err)
	}
	if _, err := ctl.RunRound(); err != nil {
		b.Fatal(err)
	}
	return ctl
}

// BenchmarkPlaceBatch measures the batch placement plane at 16,384 hosts.
// The batch-N sub-benchmarks place N uniquely-named VMs per PlaceBatch call;
// looped-placenow-1024 places the same 1024 VMs through sequential
// single-VM PlaceBatch calls — the pre-batch API shape, where every request pays its own
// candidate shortlist (up to 256 post-placement case builds + predictions)
// instead of splitting one shared budget across the queue. The contract is
// batch-1024 sustaining >= 5x the vms/s of the loop.
func BenchmarkPlaceBatch(b *testing.B) {
	ctl := benchPlaceFleet(b)
	var seq int64
	specs := func(n int) []vmtherm.VMSpec {
		out := make([]vmtherm.VMSpec, n)
		for i := range out {
			seq++
			out[i] = vmtherm.FleetHeavyVMSpec(fmt.Sprintf("bench-%09d", seq), 1, 2)
		}
		return out
	}
	check := func(b *testing.B, dec vmtherm.FleetPlacementDecision) {
		if dec.Status != vmtherm.FleetPlaced {
			b.Fatalf("placement %s (%s): %s", dec.Status, dec.Code, dec.Reason)
		}
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
					check(b, dec)
				}
			}
			if d := b.Elapsed().Seconds(); d > 0 {
				b.ReportMetric(float64(size*b.N)/d, "vms/s")
			}
		})
	}
	b.Run("looped-placenow-1024", func(b *testing.B) {
		const n = 1024
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, spec := range specs(n) {
				decs, err := ctl.PlaceBatch([]vmtherm.VMSpec{spec})
				if err != nil {
					b.Fatal(err)
				}
				check(b, decs[0])
			}
		}
		if d := b.Elapsed().Seconds(); d > 0 {
			b.ReportMetric(float64(n*b.N)/d, "vms/s")
		}
	})
}

// BenchmarkFleetRoundCold measures the same control round with the anchor
// cache invalidated before every round — the mass re-anchor worst case
// (first sight of a fleet, model hot-swap, migration wave) where every
// occupied host's ψ_stable must go through the batch predictor. This is the
// path the worker-sharded miss fan-out exists for.
func BenchmarkFleetRoundCold(b *testing.B) {
	ctl, cfg := benchFleetController(b)
	const hosts = 256
	if _, err := ctl.RunRound(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctl.InvalidateAnchorCache()
		if _, err := ctl.RunRound(); err != nil {
			b.Fatal(err)
		}
	}
	if d := b.Elapsed().Seconds(); d > 0 {
		b.ReportMetric(float64(hosts*b.N)/d, "hosts/s")
		b.ReportMetric(cfg.UpdateEveryS*float64(b.N)/d, "x-realtime")
	}
}

// BenchmarkAnchorCache measures the warm anchor path at 1024 hosts: a
// source-driven controller replaying one sample per host per round, every
// host hitting the quantized anchor cache — key derivation, lookup, and
// anchor-map fill, with zero batch-predictor work (hit-% must stay 100).
// The warm anchors() pass is allocation-free (pinned by the fleet unit
// tests), and since the epoch-versioned snapshot landed the whole warm
// round is too (TestWarmRoundZeroAlloc) — the residual B/op here is the
// first rounds' generation warm-up amortized over the run.
func BenchmarkAnchorCache(b *testing.B) {
	const hosts = 1024
	cfg := vmtherm.DefaultFleetConfig()
	cfg.MaxHosts = hosts
	readings := make([]vmtherm.FleetReading, hosts)
	for i := range readings {
		readings[i] = vmtherm.FleetReading{
			HostID: fmt.Sprintf("a%02d-h%03d", i/64, i%64),
			// Spread over one Δ_update so a looped replay emits one sample
			// per host per 15 s round.
			AtS:     float64(i) * 15.0 / hosts,
			TempC:   30 + float64(i%40),
			Util:    float64(i%101) / 100,
			MemFrac: float64(i%53) / 52,
		}
	}
	src, err := vmtherm.NewTraceSource(readings, vmtherm.TraceOptions{Loop: true})
	if err != nil {
		b.Fatal(err)
	}
	ctl, err := vmtherm.NewFleetWithSource(cfg, src, vmtherm.FleetSyntheticPredictor(75))
	if err != nil {
		b.Fatal(err)
	}
	// One round discovers the population and fills the cache.
	if _, err := ctl.RunRound(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var hits, misses int
	for i := 0; i < b.N; i++ {
		rep, err := ctl.RunRound()
		if err != nil {
			b.Fatal(err)
		}
		hits += rep.AnchorHits
		misses += rep.AnchorMisses
	}
	if d := b.Elapsed().Seconds(); d > 0 {
		b.ReportMetric(float64(hosts*b.N)/d, "hosts/s")
	}
	if total := hits + misses; total > 0 {
		b.ReportMetric(100*float64(hits)/float64(total), "hit-%")
	}
}

// BenchmarkEngineRound measures one steady-state control round of the
// unified session engine at 1024 hosts: staleness accounting, calibration,
// re-anchor checks and Δ_gap-ahead prediction per host — the hot path under
// both the fleet control plane and the prediction service. "slots" is the
// slot-indexed front-end the fleet controller runs (cached session handles,
// no string hashed), "keyed" the map front-end over the same per-host body.
// The engine's contract is zero allocations per round on both (the B/op
// column must stay 0).
func BenchmarkEngineRound(b *testing.B) {
	const hosts = 1024
	ids := make([]string, hosts)
	for i := range ids {
		ids[i] = fmt.Sprintf("r%02d-h%03d", i/64, i%64)
	}
	reading := func(i int) telemetry.Reading {
		return telemetry.Reading{HostID: ids[i], AtS: 0, TempC: 25 + float64(i%30)}
	}
	anchor := func(i int) float64 { return 40 + float64(i%40) }
	// advance moves host's reading to the round at now, as a drain would.
	advance := func(r *telemetry.Reading, round int, now float64) {
		r.AtS = now
		r.TempC = 25 + float64((round+int(r.TempC))%30)
	}
	run := func(b *testing.B, round func(round int, now float64) int) {
		// Build every session before timing: steady state, not cold start.
		round(0, 0)
		now := 0.0
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			now += 15
			if n := round(i, now); n != hosts {
				b.Fatalf("round produced %d predictions, want %d", n, hosts)
			}
		}
		if d := b.Elapsed().Seconds(); d > 0 {
			b.ReportMetric(float64(hosts*b.N)/d, "hosts/s")
		}
	}
	newEngine := func(b *testing.B) *engine.Engine {
		eng, err := engine.New(engine.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		return eng
	}

	b.Run("slots", func(b *testing.B) {
		eng := newEngine(b)
		slots := make([]engine.Slot, hosts)
		for i := range slots {
			slots[i] = engine.Slot{Reading: reading(i), Present: true, Anchor: anchor(i)}
		}
		var dst []engine.Prediction
		run(b, func(round int, now float64) int {
			if now > 0 {
				for i := range slots {
					advance(&slots[i].Reading, round, now)
				}
			}
			dst, _ = eng.RoundSlots(dst[:0], now, ids, slots)
			return len(dst)
		})
	})
	b.Run("keyed", func(b *testing.B) {
		eng := newEngine(b)
		latest := make(map[string]telemetry.Reading, hosts)
		anchors := make(map[string]float64, hosts)
		for i, id := range ids {
			latest[id], anchors[id] = reading(i), anchor(i)
		}
		var dst []engine.Prediction
		run(b, func(round int, now float64) int {
			if now > 0 {
				for _, id := range ids {
					r := latest[id]
					advance(&r, round, now)
					latest[id] = r
				}
			}
			dst, _ = eng.Round(dst[:0], now, ids, latest, anchors)
			return len(dst)
		})
	})
}

// BenchmarkMigrationStudy measures dynamic prediction through a live VM
// migration — the "dynamic scenario" the paper's introduction motivates.
func BenchmarkMigrationStudy(b *testing.B) {
	cfg := experiments.DefaultFig1bConfig(benchSeed)
	cfg.TrainCases = 48
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunMigrationStudy(context.Background(), cfg, 900)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.WithMSE, "MSE-calibrated")
		b.ReportMetric(res.WithoutMSE, "MSE-uncalibrated")
	}
}

// BenchmarkAblationSensorNoise sweeps sensor noise σ (Abl. E): how much of
// the prediction error floor is the sensor path.
func BenchmarkAblationSensorNoise(b *testing.B) {
	cfg := experiments.DefaultFig1aConfig(benchSeed)
	cfg.TrainCases = 96
	cfg.TestCases = 12
	sigmas := []float64{0, 0.2, 0.4, 0.8, 1.6}
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunAblationSensorNoise(context.Background(), cfg, sigmas)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.MSEs[0], "MSE-sigma0")
		b.ReportMetric(res.MSEs[2], "MSE-sigma0.4")
		b.ReportMetric(res.MSEs[4], "MSE-sigma1.6")
	}
}

// BenchmarkStreamObserve measures the engine's event-driven hot path at
// 1024 warm sessions, batch 1024 readings per op: "observe" is the
// per-arrival ObserveBatch apply (inline calibration when Δ_update has
// elapsed), "predict-fresh" the synchronous observe+predict behind
// `predict: true` ingest, "predict-one" the lock-striped Δ_gap-ahead read.
// The warm paths are allocation-free (pinned by
// TestStreamObserveZeroAllocWarm) — the B/op column must stay 0.
func BenchmarkStreamObserve(b *testing.B) {
	const hosts = 1024
	build := func(b *testing.B) (*engine.Engine, []telemetry.Reading) {
		b.Helper()
		eng, err := engine.New(engine.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		readings := make([]telemetry.Reading, hosts)
		for i := range readings {
			id := fmt.Sprintf("r%02d-h%03d", i/64, i%64)
			if err := eng.Create(id, engine.SessionParams{
				Phi0: 25 + float64(i%30), StableC: 40 + float64(i%40),
			}); err != nil {
				b.Fatal(err)
			}
			readings[i] = telemetry.Reading{
				HostID: id, AtS: 0,
				TempC: 25 + float64(i%30), Util: float64(i%101) / 100, MemFrac: 0.4,
			}
		}
		return eng, readings
	}
	advance := func(readings []telemetry.Reading, now float64) {
		for i := range readings {
			readings[i].AtS = now
			readings[i].TempC = 25 + float64((int(now)+i)%30)
		}
	}

	b.Run("observe", func(b *testing.B) {
		eng, readings := build(b)
		now := 0.0
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			now += 5 // sampling interval: calibration fires every 3rd pass
			advance(readings, now)
			if st := eng.ObserveBatch(readings, nil); st.Applied != hosts {
				b.Fatalf("stream stats %+v, want %d applied", st, hosts)
			}
		}
		if d := b.Elapsed().Seconds(); d > 0 {
			b.ReportMetric(float64(hosts*b.N)/d, "readings/s")
		}
	})
	b.Run("predict-fresh", func(b *testing.B) {
		eng, readings := build(b)
		now := 0.0
		var st engine.StreamStats
		var p engine.Prediction
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			now += 5
			advance(readings, now)
			for j := range readings {
				if !eng.PredictFresh(readings[j], nil, &st, &p) {
					b.Fatalf("host %s deferred", readings[j].HostID)
				}
			}
		}
		if d := b.Elapsed().Seconds(); d > 0 {
			b.ReportMetric(float64(hosts*b.N)/d, "preds/s")
		}
	})
	b.Run("predict-one", func(b *testing.B) {
		eng, readings := build(b)
		eng.ObserveBatch(readings, nil)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := range readings {
				if _, err := eng.PredictOne(readings[j].HostID, 5); err != nil {
					b.Fatal(err)
				}
			}
		}
		if d := b.Elapsed().Seconds(); d > 0 {
			b.ReportMetric(float64(hosts*b.N)/d, "preds/s")
		}
	})
}

// BenchmarkIngestPush measures the fleet telemetry push path at 1024 hosts,
// batch 256 readings per op — the cost behind one /v1/fleet/ingest request
// minus HTTP. "buffered" pushes into the bounded pipeline only (the
// round-based path, with the drain map pre-sized from the host count);
// "streamed" additionally applies every reading on arrival (observe →
// calibrate → live hotspot index); "predict" also returns the synchronous
// Δ_gap-ahead prediction per reading. Untimed control rounds drain the
// pipeline before it fills, so drops never contaminate the measurement.
func BenchmarkIngestPush(b *testing.B) {
	const hosts = 1024
	const batch = 256
	for _, sub := range []struct {
		name               string
		streaming, predict bool
	}{
		{"buffered", false, false},
		{"streamed", true, false},
		{"predict", true, true},
	} {
		b.Run(sub.name, func(b *testing.B) {
			cfg := vmtherm.DefaultFleetConfig()
			cfg.MaxHosts = hosts
			cfg.IngestBuffer = 1 << 16
			cfg.StreamingIngest = sub.streaming
			base := make([]vmtherm.FleetReading, hosts)
			for i := range base {
				base[i] = vmtherm.FleetReading{
					HostID:  fmt.Sprintf("a%02d-h%03d", i/64, i%64),
					AtS:     float64(i) * 15.0 / hosts,
					TempC:   30 + float64(i%40),
					Util:    float64(i%101) / 100,
					MemFrac: float64(i%53) / 52,
				}
			}
			src, err := vmtherm.NewTraceSource(base, vmtherm.TraceOptions{Loop: true})
			if err != nil {
				b.Fatal(err)
			}
			ctl, err := vmtherm.NewFleetWithSource(cfg, src, vmtherm.FleetSyntheticPredictor(75))
			if err != nil {
				b.Fatal(err)
			}
			// Two rounds: discover the population, then warm every session.
			for r := 0; r < 2; r++ {
				if _, err := ctl.RunRound(); err != nil {
					b.Fatal(err)
				}
			}
			readings := make([]vmtherm.FleetReading, batch)
			results := make([]vmtherm.FleetIngestResult, batch)
			seq, buffered := 0, 0
			wantOutcome := vmtherm.FleetIngestBuffered
			if sub.streaming {
				wantOutcome = vmtherm.FleetIngestStreamed
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if buffered+batch > cfg.IngestBuffer/2 {
					b.StopTimer()
					if _, err := ctl.RunRound(); err != nil {
						b.Fatal(err)
					}
					buffered = 0
					b.StartTimer()
				}
				for j := range readings {
					r := base[seq%hosts]
					r.AtS = 30 + float64(seq)*15.0/hosts
					readings[j] = r
					seq++
				}
				if n := ctl.IngestBatch(readings, sub.predict, results); n != batch {
					b.Fatalf("accepted %d/%d readings", n, batch)
				}
				buffered += batch
				if results[0].Outcome != wantOutcome {
					b.Fatalf("outcome %v, want %v", results[0].Outcome, wantOutcome)
				}
			}
			if d := b.Elapsed().Seconds(); d > 0 {
				b.ReportMetric(float64(batch*b.N)/d, "readings/s")
			}
		})
	}
}

// The HTTP rung of the layer ladder: what the two float-heavy routes pay to
// turn bytes into values and back, below net/http and above the model. Each
// benchmark runs the request message of one scheduling round (128 rows × 16
// features) or one agent push (64 readings, predict) through the typed codec
// ("typed") and through encoding/json ("json"), which the typed codec must
// match byte for byte and value for value.

// wireBenchMessages builds the two request messages with full-precision
// values, the worst case for both codecs.
func wireBenchMessages() (*predictserver.StableBatchRequest, *predictserver.FleetIngestRequest) {
	g := rand.New(rand.NewSource(benchSeed))
	stable := &predictserver.StableBatchRequest{Rows: make([][]float64, 128)}
	for i := range stable.Rows {
		stable.Rows[i] = make([]float64, 16)
		for j := range stable.Rows[i] {
			stable.Rows[i][j] = g.Float64() * 100
		}
	}
	ingest := &predictserver.FleetIngestRequest{Readings: make([]predictserver.FleetReading, 64), Predict: true}
	for i := range ingest.Readings {
		ingest.Readings[i] = predictserver.FleetReading{
			HostID: fmt.Sprintf("r%02d-h%03d", i/8, i), AtS: 15 * g.Float64(),
			TempC: 40 + 40*g.Float64(), Util: g.Float64(), MemFrac: g.Float64(),
		}
	}
	return stable, ingest
}

// benchWireParse times DecodeWire of msg's own encoding into fresh (reused
// across iterations, as the server's pooled message is) against
// json.Unmarshal into the same value.
func benchWireParse(b *testing.B, msg, fresh predictserver.WireMessage) {
	body, err := predictserver.EncodeWire(nil, msg)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("typed", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if !fresh.ParseJSON(body) {
				b.Fatal("typed parser stepped aside on its own encoding")
			}
		}
	})
	b.Run("json", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := json.Unmarshal(body, fresh); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// benchWireAppend times AppendJSON into a reused buffer against json.Marshal.
func benchWireAppend(b *testing.B, msg predictserver.WireMessage) {
	buf, ok := msg.AppendJSON(nil)
	if !ok {
		b.Fatal("typed encoder stepped aside on a plain message")
	}
	b.Run("typed", func(b *testing.B) {
		b.SetBytes(int64(len(buf)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf, _ = msg.AppendJSON(buf[:0])
		}
	})
	b.Run("json", func(b *testing.B) {
		b.SetBytes(int64(len(buf)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := json.Marshal(msg); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkWireStableBatchParse(b *testing.B) {
	stable, _ := wireBenchMessages()
	benchWireParse(b, stable, new(predictserver.StableBatchRequest))
}

func BenchmarkWireStableBatchAppend(b *testing.B) {
	stable, _ := wireBenchMessages()
	benchWireAppend(b, stable)
}

func BenchmarkWireIngestParse(b *testing.B) {
	_, ingest := wireBenchMessages()
	benchWireParse(b, ingest, new(predictserver.FleetIngestRequest))
}

func BenchmarkWireIngestAppend(b *testing.B) {
	_, ingest := wireBenchMessages()
	benchWireAppend(b, ingest)
}
