package daemon

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vmtherm/internal/checkpoint"
	"vmtherm/internal/core"
	"vmtherm/internal/fleet"
)

// fastModel trains one small real model per test binary: Start serves
// nothing without one.
var (
	modelOnce sync.Once
	model     *core.StablePredictor
	modelErr  error
)

func fastModel(t *testing.T) *core.StablePredictor {
	t.Helper()
	if testing.Short() {
		t.Skip("trains a model")
	}
	modelOnce.Do(func() { model, modelErr = TrainFast(context.Background(), 5, 12) })
	if modelErr != nil {
		t.Fatal(modelErr)
	}
	return model
}

// shape is one of the two ways a binary runs the round loop: fleetd in the
// foreground with a round budget, predictd in the background until it is
// cancelled. Both replay the recorded trace at a sub-millisecond pace, so
// the loop is always about to start another round when it is told to stop.
type shape struct {
	name       string
	defaults   Defaults
	loop       Loop
	background bool
}

var shapes = []shape{
	{"foreground loop with a round budget", Defaults{Source: "sim", Racks: 8, Hosts: 32},
		Loop{Rounds: 7, Pace: true, StopOnError: true}, false},
	{"background loop until cancel", Defaults{Addr: ":8080", Model: "model.svm", Racks: 4, Hosts: 16, Speed: 1, Loop: true},
		Loop{Pace: true}, true},
}

// controller parses args over the shape's flag defaults and builds its fleet.
func (s shape) controller(t *testing.T, args ...string) *Controller {
	t.Helper()
	fs := flag.NewFlagSet(s.name, flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	f := Bind(fs, s.defaults)
	args = append([]string{"-source", "trace", "-trace", traceFile, "-loop", "-speed", "100000"}, args...)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	ctl, err := f.NewController(f.Config(), synthetic)
	if err != nil {
		t.Fatal(err)
	}
	return ctl
}

// run is the shape's main(): Start, Loop, Shutdown. until is polled while a
// background loop runs; the daemon is cancelled once it reports true.
func (s shape) run(t *testing.T, addr string, ctl *Controller, until func() bool) error {
	t.Helper()
	rt, err := Start(addr, fastModel(t), ctl)
	if err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if !s.background {
		return errors.Join(rt.Loop(ctx, s.loop), rt.Shutdown())
	}
	go func() { _ = rt.Loop(ctx, s.loop) }()
	for deadline := time.Now().Add(10 * time.Second); !until(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the background loop never got there")
		}
	}
	cancel()
	return rt.Shutdown()
}

func roundOf(ctl *Controller) (r int) {
	ctl.ViewSnapshot(func(s *fleet.Snapshot) { r = s.Round })
	return r
}

// TestOccupiedAddrFailsBeforeFirstRound: `-addr` on a port something else
// holds must fail the daemon before round 1. fleetd used to start
// ListenAndServe in a goroutine and only log its error: it announced
// "serving fleet API", ran every round unserved and exited 0 — or, with
// -rounds 0, ran forever.
func TestOccupiedAddrFailsBeforeFirstRound(t *testing.T) {
	occupied, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer occupied.Close()
	for _, s := range shapes {
		ctl := s.controller(t)
		err := s.run(t, occupied.Addr().String(), ctl, func() bool { return true })
		if err == nil || !strings.Contains(err.Error(), "address already in use") {
			t.Errorf("%s on an occupied port: %v, want a bind error", s.name, err)
		}
		if r := roundOf(ctl); r != 0 {
			t.Errorf("%s: ran %d rounds on a port it could not bind", s.name, r)
		}
	}
}

// TestFinalCheckpointFollowsLastRound pins the shutdown contract for both
// shapes: Shutdown cuts the final checkpoint only after every round loop has
// exited, so the checkpointed round is the last round the controller ever
// ran. predictd's loop used to be left running: with its ticker and ctx.Done
// both ready, select could start one more round after the checkpoint was
// written.
func TestFinalCheckpointFollowsLastRound(t *testing.T) {
	for _, s := range shapes {
		for i := 0; i < 10; i++ {
			base := filepath.Join(t.TempDir(), "ckpt")
			ctl := s.controller(t, "-checkpoint-file", base, "-checkpoint-every", "0")
			if err := s.run(t, "127.0.0.1:0", ctl, func() bool { return roundOf(ctl) >= 5 }); err != nil {
				t.Fatal(err)
			}
			st, _, err := checkpoint.NewStore(base).Load()
			if err != nil {
				t.Fatal(err)
			}
			final := roundOf(ctl)
			if st.Round != final {
				t.Fatalf("%s, shutdown %d: final checkpoint cut at round %d, but the loop ran on to round %d", s.name, i, st.Round, final)
			}
			if !s.background && final != s.loop.Rounds {
				t.Fatalf("%s: ran %d rounds of a budget of %d", s.name, final, s.loop.Rounds)
			}
		}
	}
}

// TestShutdownOrder walks /readyz through a daemon's life and pins the one
// shutdown order: 503 before any round has completed, 200 after round 1, 503
// from the moment Shutdown begins — while requests are still draining, and
// not reopened by the round that completes during it — then the drain, then
// the loop's exit awaited, and only then the final checkpoint, whose round
// is the last round run.
func TestShutdownOrder(t *testing.T) {
	s := shapes[1]
	base := filepath.Join(t.TempDir(), "ckpt")
	ctl := s.controller(t, "-checkpoint-file", base, "-checkpoint-every", "0")
	rt, err := Start("127.0.0.1:0", fastModel(t), ctl)
	if err != nil {
		t.Fatal(err)
	}
	readyz := func() int {
		rw := httptest.NewRecorder()
		rt.Handler().ServeHTTP(rw, httptest.NewRequest(http.MethodGet, "/readyz", nil))
		return rw.Code
	}
	if resp, err := http.Get("http://" + rt.Addr() + "/readyz"); err != nil || resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz before round 1: %v, %v; want 503", resp, err)
	} else {
		resp.Body.Close()
	}

	// The loop's ctx is never cancelled: what stops it is the listener
	// closing. Once armed, its next round parks before it runs.
	var armed atomic.Bool
	parked, release := make(chan struct{}), make(chan struct{})
	loop := s.loop
	loop.Step = func() (fleet.RoundReport, error) {
		if armed.CompareAndSwap(true, false) {
			close(parked)
			<-release
		}
		return ctl.RunRound()
	}
	loopDone := make(chan struct{})
	go func() { defer close(loopDone); _ = rt.Loop(context.Background(), loop) }()
	waitFor(t, "round 1 to open /readyz", func() bool { return readyz() == http.StatusOK })
	armed.Store(true)
	<-parked
	inFlight := roundOf(ctl) + 1

	// A pushed reading the telemetry tee sits on holds its request, and so
	// the drain, open.
	inHandler, answer := make(chan struct{}), make(chan struct{})
	ctl.TeeTelemetry(func(r fleet.Reading) bool {
		if r.HostID == "slow" {
			close(inHandler)
			<-answer
		}
		return true
	})
	answered := make(chan error, 1)
	go func() {
		resp, err := http.Post("http://"+rt.Addr()+"/v1/fleet/ingest", "application/json",
			strings.NewReader(`{"readings":[{"host_id":"slow","at_s":1,"temp_c":44,"util":0.5}]}`))
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("status %d", resp.StatusCode)
			}
		}
		answered <- err
	}()
	<-inHandler

	shutdown := make(chan error, 1)
	go func() { shutdown <- rt.Shutdown() }()
	waitFor(t, "Shutdown to close /readyz", func() bool { return readyz() == http.StatusServiceUnavailable })
	stillShuttingDown := func(why string) {
		t.Helper()
		time.Sleep(50 * time.Millisecond)
		select {
		case err := <-shutdown:
			t.Fatalf("Shutdown returned (%v) while %s", err, why)
		default:
		}
		if _, _, err := checkpoint.NewStore(base).Load(); !errors.Is(err, checkpoint.ErrNoCheckpoint) {
			t.Fatalf("a checkpoint exists while %s (load: %v)", why, err)
		}
	}
	stillShuttingDown("a request was in flight")

	// Finish the request: the drain completes; the round is still in flight.
	close(answer)
	if err := <-answered; err != nil {
		t.Errorf("the in-flight request was not answered: %v", err)
	}
	stillShuttingDown("a round was in flight")

	// Let the round finish: the loop sees the closed listener and exits,
	// Close cuts the checkpoint.
	close(release)
	if err := <-shutdown; err != nil {
		t.Fatal(err)
	}
	select {
	case <-loopDone:
	default:
		t.Fatal("Shutdown returned before the loop exited")
	}
	st, _, err := checkpoint.NewStore(base).Load()
	if err != nil {
		t.Fatal(err)
	}
	if final := roundOf(ctl); final != inFlight || st.Round != final {
		t.Errorf("final checkpoint at round %d, last round run %d, round in flight at shutdown %d", st.Round, final, inFlight)
	}
	if code := readyz(); code != http.StatusServiceUnavailable {
		t.Errorf("/readyz = %d after a round completed during shutdown; it must stay 503", code)
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestLoopPacesBelowClockResolution: `vmtherm-predictd -source trace -speed
// 1e11` takes PaceS below a nanosecond; it rounds to a zero Duration, which
// time.NewTicker panics on — after "serving on …" had been logged. The loop
// paces by deadline, and a zero interval means back to back.
func TestLoopPacesBelowClockResolution(t *testing.T) {
	ctl, err := assemble(t, "-source", "trace", "-trace", traceFile, "-loop", "-speed", "1e11")
	if err != nil {
		t.Fatal(err)
	}
	if d := time.Duration(ctl.PaceS * float64(time.Second)); ctl.PaceS <= 0 || d != 0 {
		t.Fatalf("PaceS = %v (%v): the test needs a positive pace under 1 ns", ctl.PaceS, d)
	}
	rt, err := Start("", nil, ctl)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Loop(context.Background(), Loop{Rounds: 3, Pace: true, StopOnError: true}); err != nil {
		t.Fatal(err)
	}
	if r := roundOf(ctl); r != 3 {
		t.Errorf("ran %d rounds, want 3", r)
	}
	if err := rt.Shutdown(); err != nil {
		t.Fatal(err)
	}
	// Shutdown has waited for the loops it knew of; one that arrives late
	// (predictd's goroutine losing the race with an early SIGTERM) runs nothing.
	if err := rt.Loop(context.Background(), Loop{Rounds: 1}); err != nil || roundOf(ctl) != 3 {
		t.Errorf("a Loop started after Shutdown ran a round (round %d, err %v)", roundOf(ctl), err)
	}
}

// TestLoopHoldsItsPace: a paced loop starts round k+1 one PaceS after round
// k, and stops waiting the moment its ctx is cancelled.
func TestLoopHoldsItsPace(t *testing.T) {
	ctl, err := assemble(t, "-source", "trace", "-trace", traceFile, "-loop")
	if err != nil {
		t.Fatal(err)
	}
	ctl.PaceS = 0.02
	rt, err := Start("", nil, ctl)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := rt.Loop(context.Background(), Loop{Rounds: 4, Pace: true}); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took < 60*time.Millisecond {
		t.Errorf("4 rounds paced at 20 ms took %v", took)
	}
	ctl.PaceS = 3600
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(10*time.Millisecond, cancel)
	start = time.Now()
	if err := rt.Loop(ctx, Loop{Pace: true}); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Errorf("a cancelled loop kept waiting out its pace for %v", took)
	}
}

// TestLoopStopsOrCarriesOn: a failed round ends a StopOnError loop with its
// error, before After or /readyz see it; without the bit the loop logs it
// and runs the rest of its budget.
func TestLoopStopsOrCarriesOn(t *testing.T) {
	ctl, err := assemble(t, "-source", "trace", "-trace", traceFile, "-loop")
	if err != nil {
		t.Fatal(err)
	}
	rt, err := Start("", nil, ctl)
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	calls, completed := 0, 0
	l := Loop{
		Rounds: 3,
		Step: func() (fleet.RoundReport, error) {
			if calls++; calls == 2 {
				return fleet.RoundReport{}, boom
			}
			return ctl.RunRound()
		},
		After:       func(fleet.RoundReport) { completed++ },
		StopOnError: true,
	}
	if err := rt.Loop(context.Background(), l); !errors.Is(err, boom) || calls != 2 || completed != 1 {
		t.Errorf("StopOnError: err %v after %d steps, %d completed; want boom after 2, 1", err, calls, completed)
	}
	calls, completed, l.StopOnError = 0, 0, false
	if err := rt.Loop(context.Background(), l); err != nil || calls != 3 || completed != 2 {
		t.Errorf("carry on: err %v after %d steps, %d completed; want nil after 3, 2", err, calls, completed)
	}
}

// TestStartInProcessServesAllEndpointFamilies: the in-process daemon loadgen
// profiles is the production wiring — the trained model behind the
// prediction routes and the fleet's anchors, the fleet configuration applied
// as given, every round through Loop.
func TestStartInProcessServesAllEndpointFamilies(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	fc := fleet.DefaultConfig()
	fc.Racks, fc.HostsPerRack, fc.Seed = 1, 4, 7
	fc.Admission = fleet.AdmissionPolicy{MaxQueueDepth: 64}
	ctx := context.Background()
	rt, err := StartInProcess(ctx, fc, 12, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = rt.Shutdown() })
	get := func(path string) int {
		rw := httptest.NewRecorder()
		rt.Handler().ServeHTTP(rw, httptest.NewRequest(http.MethodGet, path, nil))
		return rw.Code
	}
	if code := get("/readyz"); code != http.StatusServiceUnavailable {
		t.Errorf("/readyz = %d before the first round", code)
	}
	if err := rt.Loop(ctx, Loop{Rounds: 2, StopOnError: true}); err != nil {
		t.Fatal(err)
	}
	if r := roundOf(rt.Ctl); r != 2 {
		t.Fatalf("priming ran %d rounds, want 2", r)
	}
	if got := rt.Ctl.Config().Admission.MaxQueueDepth; got != 64 {
		t.Fatalf("admission policy not applied: queue depth %d", got)
	}
	for _, path := range []string{"/healthz", "/readyz", "/v1/fleet/hotspots", "/metrics"} {
		if code := get(path); code != http.StatusOK {
			t.Errorf("GET %s = %d", path, code)
		}
	}
	// The prediction routes answer from a real trained model.
	body := strings.NewReader(`{"features":[0.5,0.5,0.5,0.5,0.5,0.5,0.5,0.5,0.5,0.5,0.5,0.5,0.5,0.5,0.5,0.5]}`)
	rw := httptest.NewRecorder()
	rt.Handler().ServeHTTP(rw, httptest.NewRequest(http.MethodPost, "/v1/predict/stable", body))
	if rw.Code != http.StatusOK || !strings.Contains(rw.Body.String(), "stable_temp_c") {
		t.Errorf("POST /v1/predict/stable = %d %s", rw.Code, rw.Body.String())
	}
	rw = httptest.NewRecorder()
	rt.Handler().ServeHTTP(rw, httptest.NewRequest(http.MethodPost, "/v1/predict/stable", strings.NewReader(`{"features":[]}`)))
	if rw.Code != http.StatusUnprocessableEntity {
		t.Errorf("zero-length feature vector answered %d (model not real?)", rw.Code)
	}
}
