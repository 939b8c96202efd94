package daemon

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"vmtherm/internal/core"
	"vmtherm/internal/dataset"
	"vmtherm/internal/fleet"
	"vmtherm/internal/predictserver"
	"vmtherm/internal/workload"
)

// TrainFast trains the model a daemon uses when it is not handed one:
// `cases` simulated experiments generated and run at seed, fitted over the
// reduced grid (core.FastStableConfig).
func TrainFast(ctx context.Context, seed int64, cases int) (*core.StablePredictor, error) {
	cs, err := workload.GenerateCases(workload.DefaultGenOptions(), seed, "fleet-train", cases)
	if err != nil {
		return nil, fmt.Errorf("generating training cases: %w", err)
	}
	recs, err := dataset.Build(ctx, cs, dataset.DefaultBuildOptions(seed))
	if err != nil {
		return nil, fmt.Errorf("building training dataset: %w", err)
	}
	model, err := core.TrainStable(ctx, recs, core.FastStableConfig())
	if err != nil {
		return nil, fmt.Errorf("training stable model: %w", err)
	}
	return model, nil
}

// Runtime is a started daemon: the one predictserver assembly over the model
// and the controller, its listener, the /readyz gate, and the round loops
// run through it. Start builds one, Loop runs rounds on it, Shutdown stops it.
type Runtime struct {
	// Ctl is the control plane rounds run on (nil: -source none, a model
	// served without a fleet).
	Ctl *Controller

	handler http.Handler // nil without a model
	http    *Server      // nil without an address

	// stopSweep ends the idle-session sweep, which closes sweepDone on its
	// way out (both nil without a model).
	stopSweep context.CancelFunc
	sweepDone chan struct{}

	rounded  atomic.Bool // a round has completed: the serving state is trustworthy
	draining atomic.Bool // Shutdown has begun: /readyz stays 503, no new loops
	mu       sync.Mutex  // orders loops.Add against Shutdown's Wait
	loops    sync.WaitGroup
}

// Start assembles the HTTP surface once for every caller: the prediction
// endpoints over model, the /v1/fleet endpoints and checkpoint status when
// ctl carries them, /readyz gated by the runtime, plus what the caller adds
// (a scenario status feed). addr is bound synchronously —
// a port that cannot be bound fails here, before any round runs; an empty
// addr gives a Handler and no listener (loadgen -inprocess, tests). Without
// a model there is nothing to serve: the runtime only runs rounds.
func Start(addr string, model *core.StablePredictor, ctl *Controller, opts ...predictserver.Option) (*Runtime, error) {
	rt := &Runtime{Ctl: ctl}
	if model == nil {
		if addr != "" {
			return nil, errors.New("-addr requires a stable model (drop -synthetic)")
		}
		return rt, nil
	}
	opts = append(opts, predictserver.WithReadiness(rt.ready), predictserver.WithClock(clock))
	if ctl != nil {
		opts = append(opts, predictserver.WithFleet(ctl.Controller))
		if ctl.Ckpt != nil {
			opts = append(opts, predictserver.WithCheckpoint(ctl.Ckpt.Status))
		}
	}
	srv, err := predictserver.New(model, opts...)
	if err != nil {
		return nil, err
	}
	rt.handler = srv.Handler()
	if addr != "" {
		if rt.http, err = Listen(addr, rt.handler); err != nil {
			return nil, err
		}
	}
	var ctx context.Context
	ctx, rt.stopSweep = context.WithCancel(context.Background())
	rt.sweepDone = make(chan struct{})
	go rt.sweepIdle(ctx, srv, idleSweepEvery)
	return rt, nil
}

// clock is the server time HTTP sessions idle on; tests replace it.
var clock = time.Now

// idleSweepEvery is how often the runtime evicts idle HTTP sessions
// (predictserver.Server.EvictIdleSessions); tests shorten it.
var idleSweepEvery = time.Minute

// sweepIdle evicts srv's idle HTTP sessions every period until ctx is done,
// then closes sweepDone.
func (rt *Runtime) sweepIdle(ctx context.Context, srv *predictserver.Server, period time.Duration) {
	defer close(rt.sweepDone)
	tick := time.NewTicker(period)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
			srv.EvictIdleSessions()
		}
	}
}

// StartInProcess is the self-contained daemon `vmtherm-loadgen -inprocess`
// profiles and the docs drift tests scrape: a fast model trained on
// trainCases experiments at cfg.Seed, a simulated fleet over cfg anchored by
// that model — the production wiring, so capacity numbers cover real
// prediction cost — and the full handler, no listener.
func StartInProcess(ctx context.Context, cfg fleet.Config, trainCases int) (*Runtime, error) {
	model, err := TrainFast(ctx, cfg.Seed, trainCases)
	if err != nil {
		return nil, err
	}
	ctl, err := (&Flags{Source: "sim"}).NewController(cfg, fleet.StableBatchPredictor(model, cfg.HorizonS))
	if err != nil {
		return nil, err
	}
	return Start("", model, ctl)
}

// Handler is the assembled HTTP surface (nil without a model).
func (rt *Runtime) Handler() http.Handler { return rt.handler }

// Addr is the address actually bound ("" without a listener).
func (rt *Runtime) Addr() string {
	if rt.http == nil {
		return ""
	}
	return rt.http.Addr()
}

// Done is closed once the listener has stopped serving, on its own or
// drained by Shutdown; without a listener it never is.
func (rt *Runtime) Done() <-chan struct{} {
	if rt.http == nil {
		return nil
	}
	return rt.http.Done()
}

// ready gates /readyz: with a fleet attached, false until the first round
// completes (cold or restored, the serving state is only trustworthy once a
// round has run); without one the model is the serving state, ready as soon
// as the listener is up. Always false once Shutdown has begun — a round
// finishing during the drain cannot reopen it.
func (rt *Runtime) ready() bool {
	return !rt.draining.Load() && (rt.Ctl == nil || rt.rounded.Load())
}

// Loop parameterizes one run of the round loop. The zero value runs the
// controller's rounds back to back until something stops it.
type Loop struct {
	// Step runs one round (nil: Ctl.RunRound; a scenario drill passes
	// scenario.Runner.Step).
	Step func() (fleet.RoundReport, error)
	// Rounds is the budget. 0 runs until ctx is cancelled, a non-looping
	// trace ends or the listener stops — which also end a budgeted loop early.
	Rounds int
	// Pace holds rounds to one per Ctl.PaceS of wall-clock time.
	Pace bool
	// Before runs ahead of every round, After behind every completed one.
	Before func()
	After  func(fleet.RoundReport)
	// StopOnError ends the loop at the first failed round and returns its
	// error. Otherwise the failure is logged and the loop carries on: a live
	// source degrades, it must not kill the API server.
	StopOnError bool
}

// Loop runs rounds on the calling goroutine until l says stop: each round is
// Before, Step, then — if it completed — /readyz opens, After, and a
// checkpoint when one is due. Pacing is by deadline: round k+1 starts PaceS
// after round k started, or at once when round k overran (a slow round earns
// no burst, a PaceS below the clock's resolution means back to back).
// Shutdown waits for every Loop still running.
func (rt *Runtime) Loop(ctx context.Context, l Loop) error {
	rt.mu.Lock()
	if rt.draining.Load() {
		rt.mu.Unlock()
		return nil
	}
	rt.loops.Add(1)
	rt.mu.Unlock()
	defer rt.loops.Done()

	ctl := rt.Ctl
	step := l.Step
	if step == nil {
		step = ctl.RunRound
	}
	pace := time.Duration(ctl.PaceS * float64(time.Second))
	next := time.Now()
	for round := 1; l.Rounds == 0 || round <= l.Rounds; round++ {
		select {
		case <-ctx.Done():
			return nil
		case <-rt.Done():
			if !rt.draining.Load() {
				log.Print("http server stopped")
			}
			return nil
		default:
		}
		if ctl.Trace != nil && ctl.Trace.Done() {
			log.Print("trace exhausted")
			return nil
		}
		if l.Before != nil {
			l.Before()
		}
		rep, err := step()
		switch {
		case err == nil:
			rt.rounded.Store(true)
			if l.After != nil {
				l.After(rep)
			}
			if _, err := ctl.Ckpt.SaveIfDue(ctl.Checkpoint, false); err != nil {
				log.Printf("checkpoint: %v", err)
			}
		case l.StopOnError:
			return err
		default:
			log.Printf("fleet round: %v", err)
		}
		if l.Pace {
			next = next.Add(pace)
			if wait := time.Until(next); wait > 0 {
				timer := time.NewTimer(wait)
				select {
				case <-ctx.Done():
				case <-rt.Done():
				case <-timer.C:
				}
				timer.Stop()
			} else {
				next = time.Now()
			}
		}
	}
	return nil
}

// Shutdown stops the daemon in the one documented order: /readyz answers 503
// so balancers stop routing, in-flight requests drain and the listener
// closes, the idle-session sweep stops, every running Loop finishes its
// in-flight round and is awaited (they stop on their ctx or on the listener
// closing), and only then Controller.Close cuts the final checkpoint —
// after the last ingest push and the last round that could still have
// mutated serving state.
func (rt *Runtime) Shutdown() error {
	rt.mu.Lock()
	rt.draining.Store(true)
	rt.mu.Unlock()
	var err error
	if rt.http != nil {
		if derr := rt.http.Drain(); derr != nil {
			err = fmt.Errorf("http: %w", derr)
		}
	}
	if rt.stopSweep != nil {
		rt.stopSweep()
		<-rt.sweepDone
	}
	rt.loops.Wait()
	if rt.Ctl != nil {
		err = errors.Join(err, rt.Ctl.Close())
	}
	return err
}
