package dataset

import (
	"context"
	"runtime"
	"testing"

	"vmtherm/internal/workload"
)

// BenchmarkBuild runs the benchmark's 160 training experiments (seed 2016)
// on one worker: the per-layer rung under every daemon's start-up and
// bench/e2e's set-up. It reports ns and heap allocations per case.
func BenchmarkBuild(b *testing.B) {
	const n = 160
	cases, err := workload.GenerateCases(workload.DefaultGenOptions(), 2016, "train", n)
	if err != nil {
		b.Fatal(err)
	}
	opts := DefaultBuildOptions(2016)
	opts.Workers = 1
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(context.Background(), cases, opts); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	per := float64(b.N * n)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/per, "ns/case")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/per, "allocs/case")
}
