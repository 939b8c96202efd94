package sloharness

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"
)

// Arrival-schedule shapes for Config.Arrivals.
const (
	// ArrivalsFixed spaces requests exactly 1/rate apart (the default).
	ArrivalsFixed = "fixed"
	// ArrivalsPoisson draws exponential inter-arrival gaps with mean
	// 1/rate — the memoryless superposition of many independent
	// monitoring agents, which bursts where a fixed schedule never does.
	ArrivalsPoisson = "poisson"
	// ArrivalsUniform draws gaps uniformly on [0, 2/rate): mildly bursty,
	// bounded worst case.
	ArrivalsUniform = "uniform"
)

// SLO declares the tail-latency constraint a step must satisfy to count as
// sustainable: the latency at Quantile must not exceed Limit.
type SLO struct {
	Quantile float64       // e.g. 0.99
	Limit    time.Duration // e.g. 5 ms
}

// Label renders the SLO the way operators say it ("p99 ≤ 5ms").
func (s SLO) Label() string {
	return fmt.Sprintf("p%g ≤ %s", s.Quantile*100, s.Limit)
}

// Target is one profiled operation: Fire issues a single request and
// reports its error. Implementations must be safe for concurrent Fire
// calls. Latency is measured around Fire by the harness.
type Target interface {
	Name() string
	Fire(ctx context.Context) error
}

// RateAware targets are told each step's offered rate before the step
// starts — synthetic latency models key their behaviour on it, and real
// targets may use it to size per-step state.
type RateAware interface {
	SetRate(rps float64)
}

// The non-latency sustainability gates: a step fails if more than
// maxErrorRate of its measured requests errored, or its achieved rate fell
// below minAchievedFrac of the target. Latency is scored on a
// DefaultHistWidth × DefaultHistBuckets histogram, exact within its width.
const (
	maxErrorRate    float64 = 0.01
	minAchievedFrac float64 = 0.9
)

// Config parameterizes a profiling run. Zero fields take the defaults
// documented per field (see withDefaults).
type Config struct {
	SLO SLO

	// StartRPS is the first step's offered rate (default 32); Growth is
	// the multiplicative step factor while the SLO holds (default 2);
	// MaxRPS caps the search (default 65536).
	StartRPS, MaxRPS, Growth float64
	// Refine is how many bisection steps tighten the bracket between the
	// last sustainable and first violating rate (default 3: the reported
	// capacity is within (Growth−1)·lastGood/2³ of the true knee).
	Refine int

	// Warmup requests are issued but not measured; Measure is the scored
	// window; Cooldown keeps load applied while stragglers drain so the
	// tail of the measured window is not artificially quiet (vHive's
	// three-phase step). Defaults: 500 ms / 2 s / 250 ms.
	Warmup, Measure, Cooldown time.Duration

	// Senders bounds in-flight requests (default 64). The job queue holds
	// at most Senders entries and the dispatcher blocks when it is full —
	// the closed-loop back-pressure that makes saturation show up as an
	// achieved-throughput shortfall instead of an unbounded backlog.
	Senders int

	// Arrivals shapes each step's dispatch schedule: ArrivalsFixed
	// (default), ArrivalsPoisson, or ArrivalsUniform. All three offer the
	// same mean rate; the randomized schedules stress queueing with
	// realistic burstiness at identical throughput.
	Arrivals string
	// ArrivalSeed seeds the randomized schedules (default 1), keeping
	// profiles reproducible run to run.
	ArrivalSeed int64
}

func (c Config) withDefaults() Config {
	if c.SLO.Quantile == 0 {
		c.SLO.Quantile = 0.99
	}
	if c.SLO.Limit == 0 {
		c.SLO.Limit = 5 * time.Millisecond
	}
	if c.StartRPS == 0 {
		c.StartRPS = 32
	}
	if c.MaxRPS == 0 {
		c.MaxRPS = 65536
	}
	if c.Growth == 0 {
		c.Growth = 2
	}
	if c.Refine == 0 {
		c.Refine = 3
	}
	if c.Warmup == 0 {
		c.Warmup = 500 * time.Millisecond
	}
	if c.Measure == 0 {
		c.Measure = 2 * time.Second
	}
	if c.Cooldown == 0 {
		c.Cooldown = 250 * time.Millisecond
	}
	if c.Senders == 0 {
		c.Senders = 64
	}
	if c.Arrivals == "" {
		c.Arrivals = ArrivalsFixed
	}
	if c.ArrivalSeed == 0 {
		c.ArrivalSeed = 1
	}
	return c
}

func (c Config) validate() error {
	if c.SLO.Quantile <= 0 || c.SLO.Quantile >= 1 {
		return fmt.Errorf("sloharness: quantile %v outside (0, 1)", c.SLO.Quantile)
	}
	if c.SLO.Limit <= 0 {
		return fmt.Errorf("sloharness: non-positive SLO limit %v", c.SLO.Limit)
	}
	if c.StartRPS <= 0 || c.MaxRPS < c.StartRPS {
		return fmt.Errorf("sloharness: bad rate range [%v, %v]", c.StartRPS, c.MaxRPS)
	}
	if c.Growth <= 1 {
		return fmt.Errorf("sloharness: growth %v must exceed 1", c.Growth)
	}
	if c.Refine < 0 {
		return fmt.Errorf("sloharness: negative refine %d", c.Refine)
	}
	if c.Senders < 1 {
		return fmt.Errorf("sloharness: senders %d < 1", c.Senders)
	}
	switch c.Arrivals {
	case ArrivalsFixed, ArrivalsPoisson, ArrivalsUniform:
	default:
		return fmt.Errorf("sloharness: unknown arrival schedule %q (want %s|%s|%s)",
			c.Arrivals, ArrivalsFixed, ArrivalsPoisson, ArrivalsUniform)
	}
	return nil
}

// StepResult scores one load step.
type StepResult struct {
	TargetRPS   float64 `json:"target_rps"`
	AchievedRPS float64 `json:"achieved_rps"`
	Completed   int     `json:"completed"`
	Errors      int     `json:"errors"`
	P50Ms       float64 `json:"p50_ms"`
	P90Ms       float64 `json:"p90_ms"`
	P99Ms       float64 `json:"p99_ms"`
	MaxMs       float64 `json:"max_ms"`
	// QuantileMs is the latency at the SLO quantile — the number compared
	// against the limit.
	QuantileMs  float64 `json:"quantile_ms"`
	Sustainable bool    `json:"sustainable"`
	// Violation names the first failed gate: "latency", "errors",
	// "throughput", or "" when sustainable.
	Violation string `json:"violation,omitempty"`
	// Refining marks bisection steps (after the first violation bracketed
	// the knee) apart from the geometric ramp.
	Refining bool `json:"refining,omitempty"`
}

// Profile is one complete endpoint × knob profiling run.
type Profile struct {
	Endpoint string `json:"endpoint"`
	// Knobs records the configuration the run profiled (batch size,
	// admission budget, worker counts, ...) — the matrix key.
	Knobs map[string]string `json:"knobs,omitempty"`
	// SLOLabel and the raw quantile/limit describe the constraint.
	SLOLabel string       `json:"slo"`
	Quantile float64      `json:"quantile"`
	LimitMs  float64      `json:"limit_ms"`
	Steps    []StepResult `json:"steps"`
	// MaxSustainableRPS is the highest offered rate whose step satisfied
	// every gate; 0 means even StartRPS violated the SLO.
	MaxSustainableRPS float64 `json:"max_sustainable_rps"`
	// ItemsPerRequest scales RPS to items/s (batch endpoints); 1 for
	// single-item requests.
	ItemsPerRequest int `json:"items_per_request"`
	// MaxSustainableItemsPerSec = MaxSustainableRPS × ItemsPerRequest.
	MaxSustainableItemsPerSec float64 `json:"max_sustainable_items_per_sec"`
	// HitCeiling is set when every ramp step up to MaxRPS sustained the
	// SLO: the reported capacity is a floor (the knee was never found),
	// not a measured maximum.
	HitCeiling bool `json:"hit_ceiling,omitempty"`
}

// Run profiles target under cfg: geometric ramp from StartRPS until a step
// violates the SLO (or MaxRPS sustains), then Refine bisection steps
// tighten the bracket. Every executed step is recorded in order.
func Run(ctx context.Context, cfg Config, target Target) (*Profile, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return search(cfg, target.Name(), func(rps float64, refining bool) (StepResult, error) {
		return runStep(ctx, cfg, target, rps, refining)
	})
}

// search is Run's step controller over a validated cfg: it chooses each
// step's rate, has step offer and score it, and records the profile of
// endpoint. It reads no clock, so the ramp and bisection can be driven
// by scored steps that were never run against the wall.
func search(cfg Config, endpoint string, step func(rps float64, refining bool) (StepResult, error)) (*Profile, error) {
	p := &Profile{
		Endpoint:        endpoint,
		SLOLabel:        cfg.SLO.Label(),
		Quantile:        cfg.SLO.Quantile,
		LimitMs:         float64(cfg.SLO.Limit) / float64(time.Millisecond),
		ItemsPerRequest: 1,
	}

	var lastGood, firstBad float64
	for rps := cfg.StartRPS; rps <= cfg.MaxRPS; rps *= cfg.Growth {
		res, err := step(rps, false)
		if err != nil {
			return nil, err
		}
		p.Steps = append(p.Steps, res)
		if !res.Sustainable {
			firstBad = rps
			break
		}
		lastGood = rps
	}
	if firstBad > 0 && lastGood > 0 {
		lo, hi := lastGood, firstBad
		for i := 0; i < cfg.Refine; i++ {
			mid := (lo + hi) / 2
			res, err := step(mid, true)
			if err != nil {
				return nil, err
			}
			p.Steps = append(p.Steps, res)
			if res.Sustainable {
				lo, lastGood = mid, mid
			} else {
				hi = mid
			}
		}
	}
	p.MaxSustainableRPS = lastGood
	p.MaxSustainableItemsPerSec = lastGood
	p.HitCeiling = firstBad == 0 && lastGood > 0
	return p, nil
}

// runStep offers rps for warmup+measure+cooldown. Latency is scored for
// requests scheduled inside the measure window (stragglers finish during
// cool-down, so the tail is not clipped); achieved throughput counts
// successful completions whose wall-clock finish fell inside the window —
// in a closed loop every queued job completes eventually, so only the
// completion rate, not the completion count, can expose saturation.
// Requests are dispatched against an absolute schedule (a stalled
// dispatcher catches up instead of silently offering less), but the
// bounded job queue blocks the dispatcher when all senders are busy — the
// closed-loop back-pressure.
func runStep(ctx context.Context, cfg Config, target Target, rps float64, refining bool) (StepResult, error) {
	if ra, ok := target.(RateAware); ok {
		ra.SetRate(rps)
	}
	offsetAt := arrivalSchedule(cfg, rps)
	type job struct{ measured bool }
	jobs := make(chan job, cfg.Senders)

	start := time.Now()
	measureFrom := start.Add(cfg.Warmup)
	measureTo := measureFrom.Add(cfg.Measure)
	end := measureTo.Add(cfg.Cooldown)

	hists := make([]*Histogram, cfg.Senders)
	errCounts := make([]int, cfg.Senders)
	doneCounts := make([]int, cfg.Senders) // successful finishes inside the measure window
	var wg sync.WaitGroup
	for i := 0; i < cfg.Senders; i++ {
		hists[i] = NewHistogram(DefaultHistWidth, DefaultHistBuckets)
		wg.Add(1)
		go func(hist *Histogram, errs, done *int) {
			defer wg.Done()
			for j := range jobs {
				fireStart := time.Now()
				err := target.Fire(ctx)
				finish := time.Now()
				lat := finish.Sub(fireStart)
				if err == nil && finish.After(measureFrom) && !finish.After(measureTo) {
					*done++
				}
				if !j.measured {
					continue
				}
				if err != nil {
					*errs++
					continue
				}
				hist.Record(lat)
			}
		}(hists[i], &errCounts[i], &doneCounts[i])
	}

	var dispatchErr error
dispatch:
	for i := 0; ; i++ {
		if err := ctx.Err(); err != nil {
			dispatchErr = err
			break
		}
		scheduled := start.Add(offsetAt(i))
		if scheduled.After(end) {
			break
		}
		if d := time.Until(scheduled); d > 0 {
			select {
			case <-time.After(d):
			case <-ctx.Done():
				dispatchErr = ctx.Err()
				break dispatch
			}
		}
		measured := scheduled.After(measureFrom) && !scheduled.After(measureTo)
		select {
		case jobs <- job{measured: measured}:
		case <-ctx.Done():
			dispatchErr = ctx.Err()
			break dispatch
		}
	}
	close(jobs)
	wg.Wait()
	if dispatchErr != nil {
		return StepResult{}, dispatchErr
	}

	hist := hists[0]
	errors := errCounts[0]
	doneInWindow := doneCounts[0]
	for i := 1; i < cfg.Senders; i++ {
		hist.Merge(hists[i])
		errors += errCounts[i]
		doneInWindow += doneCounts[i]
	}
	return scoreStep(cfg, rps, refining, hist, errors, doneInWindow), nil
}

// arrivalSchedule maps dispatch index → offset from step start under the
// configured arrival shape. Randomized schedules accumulate nondecreasing
// offsets (the index is ignored — the dispatcher calls in order) and are
// deterministic in (ArrivalSeed, rate), so a repeated step replays the
// same burst pattern.
func arrivalSchedule(cfg Config, rps float64) func(i int) time.Duration {
	interval := float64(time.Second) / rps
	switch cfg.Arrivals {
	case ArrivalsPoisson, ArrivalsUniform:
		rng := rand.New(rand.NewSource(cfg.ArrivalSeed ^ int64(math.Float64bits(rps))))
		uniform := cfg.Arrivals == ArrivalsUniform
		var at float64
		return func(int) time.Duration {
			if uniform {
				at += rng.Float64() * 2 * interval
			} else {
				at += rng.ExpFloat64() * interval
			}
			return time.Duration(at)
		}
	default:
		step := time.Duration(interval)
		return func(i int) time.Duration { return time.Duration(i) * step }
	}
}

// scoreStep applies the three sustainability gates to one merged window.
func scoreStep(cfg Config, rps float64, refining bool, hist *Histogram, errors, doneInWindow int) StepResult {
	completed := int(hist.Count())
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	res := StepResult{
		TargetRPS:   rps,
		AchievedRPS: float64(doneInWindow) / cfg.Measure.Seconds(),
		Completed:   completed,
		Errors:      errors,
		P50Ms:       ms(hist.Quantile(0.50)),
		P90Ms:       ms(hist.Quantile(0.90)),
		P99Ms:       ms(hist.Quantile(0.99)),
		MaxMs:       ms(hist.Max()),
		QuantileMs:  ms(hist.Quantile(cfg.SLO.Quantile)),
		Refining:    refining,
	}
	total := completed + errors
	switch {
	case total == 0:
		res.Violation = "throughput"
	case float64(errors) > maxErrorRate*float64(total):
		res.Violation = "errors"
	case hist.Quantile(cfg.SLO.Quantile) > cfg.SLO.Limit:
		res.Violation = "latency"
	case res.AchievedRPS < minAchievedFrac*rps:
		res.Violation = "throughput"
	}
	res.Sustainable = res.Violation == ""
	return res
}
