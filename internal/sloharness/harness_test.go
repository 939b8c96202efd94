package sloharness

import (
	"context"
	"math"
	"sync/atomic"
	"testing"
	"time"
)

// kneeTarget is the synthetic latency model the tentpole requires: fast
// below a known RPS knee, slow above it. Rate-awareness stands in for the
// queueing collapse a real saturated server exhibits.
type kneeTarget struct {
	kneeRPS    float64
	fast, slow time.Duration
	rate       atomic.Uint64
}

func (k *kneeTarget) Name() string        { return "synthetic-knee" }
func (k *kneeTarget) SetRate(rps float64) { k.rate.Store(math.Float64bits(rps)) }

// latency is the service time at the rate last set.
func (k *kneeTarget) latency() time.Duration {
	if math.Float64frombits(k.rate.Load()) > k.kneeRPS {
		return k.slow
	}
	return k.fast
}

func (k *kneeTarget) Fire(context.Context) error {
	time.Sleep(k.latency())
	return nil
}

// modelStep scores a step as runStep would if every request took exactly
// k's latency at the step's rate: rps·Measure requests in the window, all
// finished in it unless Senders callers at that latency cannot keep up.
func (k *kneeTarget) modelStep(cfg Config) func(rps float64, refining bool) (StepResult, error) {
	return func(rps float64, refining bool) (StepResult, error) {
		k.SetRate(rps)
		lat := k.latency()
		n := int(rps * cfg.Measure.Seconds())
		done := min(n, int(float64(cfg.Senders)*cfg.Measure.Seconds()/lat.Seconds()))
		hist := NewHistogram(DefaultHistWidth, DefaultHistBuckets)
		for i := 0; i < n; i++ {
			hist.Record(lat)
		}
		return scoreStep(cfg, rps, refining, hist, 0, done), nil
	}
}

// TestStepControllerFindsKnee: with a knee at 500 RPS, a 64→2048 geometric
// ramp brackets it at [256, 512] and three bisection steps tighten the
// bracket to 32 RPS — the harness must converge to within that final step.
// The controller runs on modelled steps, since a scheduling stall of a few
// milliseconds on a busy machine can push one 100 µs request past the
// 10 ms limit and fail a step below the knee; a wall-clock run from above
// the knee, where stalls can only add latency, checks the live path.
func TestStepControllerFindsKnee(t *testing.T) {
	target := &kneeTarget{kneeRPS: 500, fast: 100 * time.Microsecond, slow: 50 * time.Millisecond}
	cfg := Config{
		SLO:      SLO{Quantile: 0.99, Limit: 10 * time.Millisecond},
		StartRPS: 64, MaxRPS: 2048, Growth: 2, Refine: 3,
		Warmup: 30 * time.Millisecond, Measure: 200 * time.Millisecond, Cooldown: 20 * time.Millisecond,
		Senders: 64,
	}.withDefaults()
	if err := cfg.validate(); err != nil {
		t.Fatal(err)
	}
	p, err := search(cfg, target.Name(), target.modelStep(cfg))
	if err != nil {
		t.Fatal(err)
	}
	// Ramp 64, 128, 256 sustain; 512 violates; bisection refines in (256, 512).
	finalStep := (512.0 - 256.0) / 8 // (Growth−1)·lastGood / 2^Refine
	if p.MaxSustainableRPS > target.kneeRPS {
		t.Fatalf("reported capacity %.0f exceeds the knee %.0f", p.MaxSustainableRPS, target.kneeRPS)
	}
	if gap := target.kneeRPS - p.MaxSustainableRPS; gap > finalStep {
		t.Fatalf("capacity %.0f is %.0f below the knee — not within one %.0f-RPS step",
			p.MaxSustainableRPS, gap, finalStep)
	}
	if len(p.Steps) != 4+cfg.Refine {
		t.Fatalf("recorded %d steps, want 4 ramp + %d refine", len(p.Steps), cfg.Refine)
	}
	for i, s := range p.Steps[:3] {
		if !s.Sustainable {
			t.Fatalf("ramp step %d (%.0f RPS) unexpectedly violated: %s", i, s.TargetRPS, s.Violation)
		}
	}
	if s := p.Steps[3]; s.Sustainable || s.Violation != "latency" {
		t.Fatalf("step at 512 RPS: sustainable=%v violation=%q, want latency violation", s.Sustainable, s.Violation)
	}
	for _, s := range p.Steps[4:] {
		if !s.Refining {
			t.Fatalf("post-bracket step at %.0f RPS not marked refining", s.TargetRPS)
		}
	}
	if p.Endpoint != "synthetic-knee" || p.SLOLabel == "" {
		t.Fatalf("profile metadata not populated: %+v", p)
	}

	cfg.StartRPS = 512
	if p, err = Run(context.Background(), cfg, target); err != nil {
		t.Fatal(err)
	}
	if p.MaxSustainableRPS != 0 || len(p.Steps) != 1 || p.Steps[0].Violation != "latency" {
		t.Fatalf("live run from 512 RPS: capacity %.0f, steps %+v; want 0 and one latency violation", p.MaxSustainableRPS, p.Steps)
	}
	if p.Endpoint != "synthetic-knee" || p.SLOLabel == "" {
		t.Fatalf("live profile metadata not populated: %+v", p)
	}
}

// fixedCapacityTarget models a server whose concurrency × service time caps
// throughput: latency stays flat, but offered load beyond the capacity
// cannot be achieved — the throughput gate must catch it.
type fixedCapacityTarget struct{ service time.Duration }

func (f *fixedCapacityTarget) Name() string { return "fixed-capacity" }
func (f *fixedCapacityTarget) Fire(context.Context) error {
	time.Sleep(f.service)
	return nil
}

func TestThroughputShortfallViolates(t *testing.T) {
	// 2 senders × 20 ms service ⇒ 100 RPS capacity. The latency SLO is
	// deliberately loose so only the achieved-throughput gate can fail.
	target := &fixedCapacityTarget{service: 20 * time.Millisecond}
	cfg := Config{
		SLO:      SLO{Quantile: 0.99, Limit: time.Second},
		StartRPS: 16, MaxRPS: 1024, Growth: 4, Refine: 1,
		Warmup: 60 * time.Millisecond, Measure: 400 * time.Millisecond, Cooldown: 20 * time.Millisecond,
		Senders: 2,
	}
	p, err := Run(context.Background(), cfg, target)
	if err != nil {
		t.Fatal(err)
	}
	if p.MaxSustainableRPS != 64 {
		t.Fatalf("capacity %.0f, want 64 (last offered rate under the 100 RPS ceiling)", p.MaxSustainableRPS)
	}
	var sawThroughput bool
	for _, s := range p.Steps {
		if !s.Sustainable {
			if s.Violation != "throughput" {
				t.Fatalf("step %.0f violated %q, want throughput", s.TargetRPS, s.Violation)
			}
			sawThroughput = true
		}
	}
	if !sawThroughput {
		t.Fatal("no step hit the throughput gate")
	}
}

type erroringTarget struct{}

func (erroringTarget) Name() string               { return "erroring" }
func (erroringTarget) Fire(context.Context) error { return context.DeadlineExceeded }

func TestAllErrorsMeansZeroCapacity(t *testing.T) {
	cfg := Config{
		SLO:      SLO{Quantile: 0.99, Limit: time.Second},
		StartRPS: 50, MaxRPS: 200, Growth: 2, Refine: 2,
		Warmup: 10 * time.Millisecond, Measure: 100 * time.Millisecond, Cooldown: 10 * time.Millisecond,
		Senders: 4,
	}
	p, err := Run(context.Background(), cfg, erroringTarget{})
	if err != nil {
		t.Fatal(err)
	}
	if p.MaxSustainableRPS != 0 {
		t.Fatalf("capacity %.0f for an always-erroring target, want 0", p.MaxSustainableRPS)
	}
	if len(p.Steps) != 1 || p.Steps[0].Violation != "errors" {
		t.Fatalf("steps %+v, want a single errors-violating step (no refinement without a sustainable bracket)", p.Steps)
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	bad := []Config{
		{SLO: SLO{Quantile: 1.5, Limit: time.Millisecond}},
		{SLO: SLO{Quantile: 0.99, Limit: time.Millisecond}, StartRPS: 100, MaxRPS: 50},
		{SLO: SLO{Quantile: 0.99, Limit: time.Millisecond}, Growth: 0.5},
	}
	for i, cfg := range bad {
		if _, err := Run(context.Background(), cfg, erroringTarget{}); err == nil {
			t.Fatalf("config %d accepted, want validation error", i)
		}
	}
}

func TestRunHonorsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := Config{
		SLO:      SLO{Quantile: 0.99, Limit: time.Second},
		StartRPS: 10, MaxRPS: 20, Growth: 2,
		Warmup: 10 * time.Millisecond, Measure: 50 * time.Millisecond, Cooldown: 10 * time.Millisecond,
		Senders: 2,
	}
	if _, err := Run(ctx, cfg, &fixedCapacityTarget{service: time.Millisecond}); err == nil {
		t.Fatal("cancelled run returned no error")
	}
}

// TestArrivalSchedules: randomized schedules must be nondecreasing, hit the
// configured mean rate, and replay identically for the same seed and rate.
func TestArrivalSchedules(t *testing.T) {
	const rps = 1000.0
	interval := float64(time.Second) / rps
	for _, mode := range []string{ArrivalsPoisson, ArrivalsUniform} {
		cfg := Config{Arrivals: mode, ArrivalSeed: 7}
		next := arrivalSchedule(cfg, rps)
		replay := arrivalSchedule(cfg, rps)
		const n = 20000
		var prev, last time.Duration
		for i := 0; i < n; i++ {
			at := next(i)
			if at < prev {
				t.Fatalf("%s: offset %v at i=%d went backwards from %v", mode, at, i, prev)
			}
			if r := replay(i); r != at {
				t.Fatalf("%s: schedule not deterministic at i=%d: %v vs %v", mode, i, at, r)
			}
			prev, last = at, at
		}
		mean := float64(last) / n
		if mean < 0.9*interval || mean > 1.1*interval {
			t.Fatalf("%s: mean gap %v, want ≈%v", mode, time.Duration(mean), time.Duration(interval))
		}
	}
	// Fixed stays exact.
	next := arrivalSchedule(Config{Arrivals: ArrivalsFixed}, rps)
	if next(10) != 10*time.Duration(interval) {
		t.Fatalf("fixed schedule drifted: %v", next(10))
	}
}

func TestRunRejectsBadArrivals(t *testing.T) {
	_, err := Run(context.Background(), Config{Arrivals: "bursty"}, &fixedCapacityTarget{})
	if err == nil {
		t.Fatal("unknown arrival schedule accepted")
	}
}

// TestPoissonArrivalsRun: a whole profiling run under Poisson dispatch
// still finds capacity on a fast target.
func TestPoissonArrivalsRun(t *testing.T) {
	cfg := Config{
		SLO:      SLO{Quantile: 0.99, Limit: 50 * time.Millisecond},
		StartRPS: 64, MaxRPS: 256, Growth: 2, Refine: 1,
		Warmup: 50 * time.Millisecond, Measure: 300 * time.Millisecond, Cooldown: 50 * time.Millisecond,
		Senders:  8,
		Arrivals: ArrivalsPoisson,
	}
	p, err := Run(context.Background(), cfg, &fixedCapacityTarget{service: time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	if p.MaxSustainableRPS < 64 {
		t.Fatalf("fast target unsustainable under poisson arrivals: %+v", p)
	}
}
