package main

import (
	"bytes"
	"context"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// traceFile is the recorded 8-host trace the fleet goldens replay; it does
// not loop, so a replay of it ends.
const traceFile = "../../internal/fleet/testdata/trace_pr3.csv"

// oneFeatureModel is a valid model over one feature: it loads and serves,
// but every ψ_stable anchor the fleet asks of it (16 features) fails, so
// every round fails.
const oneFeatureModel = "vmtherm_stable_model v1\nscale_lower -1\nscale_upper 1\nmins 0\nmaxs 1\nmodel:\n" +
	"svm_type epsilon_svr\nkernel_type rbf\ngamma 1\nrho 0\nSV\n1 1:0.5\n"

// oneFeatureModelFile writes oneFeatureModel to a temporary file and
// returns its path.
func oneFeatureModelFile(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "one-feature.svm")
	if err := os.WriteFile(path, []byte(oneFeatureModel), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// logBuffer captures the standard logger for one test.
type logBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *logBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *logBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func captureLog(t *testing.T) *logBuffer {
	b := new(logBuffer)
	log.SetOutput(b)
	t.Cleanup(func() { log.SetOutput(os.Stderr) })
	return b
}

// daemonRun is run(ctx, args) on its own goroutine, as main runs it.
type daemonRun struct {
	cancel context.CancelFunc
	done   chan error
}

func startRun(args ...string) *daemonRun {
	ctx, cancel := context.WithCancel(context.Background())
	d := &daemonRun{cancel, make(chan error, 1)}
	go func() { d.done <- run(ctx, args) }()
	return d
}

// stop is SIGTERM: it cancels the run and returns what run returned.
func (d *daemonRun) stop(t *testing.T) error {
	t.Helper()
	d.cancel()
	select {
	case err := <-d.done:
		return err
	case <-time.After(10 * time.Second):
		t.Fatal("run did not return after cancel")
		return nil
	}
}

// freeAddr returns a loopback address nothing listens on.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	return ln.Addr().String()
}

// status answers method path on addr, waiting for the listener to come up.
func status(t *testing.T, method, addr, path, body string) int {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		req, err := http.NewRequest(method, "http://"+addr+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
			return resp.StatusCode
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s %s: %v", method, path, err)
		}
	}
}

func waitForLog(t *testing.T, logs *logBuffer, what string) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !strings.Contains(logs.String(), what); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("no %q in the log:\n%s", what, logs.String())
		}
	}
}

const stableRow = `{"features":[0.5,0.5,0.5,0.5,0.5,0.5,0.5,0.5,0.5,0.5,0.5,0.5,0.5,0.5,0.5,0.5]}`

// TestModelOnlyServesWithoutAFleet: `-source none` serves the prediction API
// over the model it trains (no -model), ready at once because no round will
// ever run, answers 503 on the fleet routes, and shuts down cleanly on
// cancel.
func TestModelOnlyServesWithoutAFleet(t *testing.T) {
	logs := captureLog(t)
	addr := freeAddr(t)
	d := startRun("-source", "none", "-train-cases", "8", "-addr", addr)
	if code := status(t, http.MethodGet, addr, "/readyz", ""); code != http.StatusOK {
		t.Errorf("/readyz = %d, want 200 with no round ever run", code)
	}
	if code := status(t, http.MethodPost, addr, "/v1/predict/stable", stableRow); code != http.StatusOK {
		t.Errorf("POST /v1/predict/stable = %d, want 200", code)
	}
	if code := status(t, http.MethodGet, addr, "/v1/fleet/hotspots", ""); code != http.StatusServiceUnavailable {
		t.Errorf("GET /v1/fleet/hotspots = %d, want 503 without a fleet", code)
	}
	if err := d.stop(t); err != nil {
		t.Errorf("shutdown: %v", err)
	}
	if strings.Contains(logs.String(), "round") {
		t.Errorf("a model-only run ran rounds:\n%s", logs.String())
	}
}

// TestOpenEndedServesPastTraceEnd: with -rounds 0 and -addr, a non-looping
// trace running out ends the rounds, not the daemon: the API keeps
// answering from the last snapshot until cancel.
func TestOpenEndedServesPastTraceEnd(t *testing.T) {
	logs := captureLog(t)
	addr := freeAddr(t)
	d := startRun("-source", "trace", "-trace", traceFile, "-rounds", "0", "-train-cases", "8", "-addr", addr)
	waitForLog(t, logs, "trace exhausted")
	waitForLog(t, logs, "serving the last snapshot")
	for _, path := range []string{"/readyz", "/v1/fleet/hotspots"} {
		if code := status(t, http.MethodGet, addr, path, ""); code != http.StatusOK {
			t.Errorf("GET %s after the trace ended = %d, want 200", path, code)
		}
	}
	select {
	case err := <-d.done:
		t.Fatalf("run returned (%v) when the trace ended", err)
	default:
	}
	if err := d.stop(t); err != nil {
		t.Errorf("shutdown: %v", err)
	}
}

// TestFailedRoundStopsOnlyBudgetedRuns: every round over a model that cannot
// anchor the fleet fails. A budgeted run exits on the first with its error;
// an open-ended one logs each and runs the next, until the trace ends.
func TestFailedRoundStopsOnlyBudgetedRuns(t *testing.T) {
	args := []string{"-source", "trace", "-trace", traceFile, "-model", oneFeatureModelFile(t)}

	logs := captureLog(t)
	if err := run(context.Background(), append(args, "-rounds", "5")); err == nil {
		t.Error("a budgeted run over failing rounds exited 0")
	}
	if n := strings.Count(logs.String(), "fleet round:"); n != 0 {
		t.Errorf("a budgeted run logged %d failed rounds and carried on", n)
	}

	logs = captureLog(t)
	if err := run(context.Background(), append(args, "-rounds", "0")); err != nil {
		t.Errorf("an open-ended run returned %v", err)
	}
	if n := strings.Count(logs.String(), "fleet round:"); n < 2 {
		t.Errorf("an open-ended run logged %d failed rounds, want one per round until the trace ended:\n%s", n, logs.String())
	}
	if !strings.Contains(logs.String(), "trace exhausted") {
		t.Errorf("the open-ended run did not reach the trace's end:\n%s", logs.String())
	}
}

// TestNoRoundSummary: when no round completed, the end-of-run summary says
// so. It used to print "0× real time" and warn that the loop was slower
// than real time, since 0 s of wall time is not less than 0 s of fleet time.
func TestNoRoundSummary(t *testing.T) {
	logs := captureLog(t)
	args := []string{"-source", "trace", "-trace", traceFile, "-model", oneFeatureModelFile(t), "-rounds", "5"}
	if err := run(context.Background(), args); err == nil {
		t.Error("a budgeted run over failing rounds exited 0")
	}
	if !strings.Contains(logs.String(), "no round completed") {
		t.Errorf("the summary does not say no round completed:\n%s", logs.String())
	}
	for _, wrong := range []string{"real time", "WARNING"} {
		if strings.Contains(logs.String(), wrong) {
			t.Errorf("the summary of a run without rounds says %q:\n%s", wrong, logs.String())
		}
	}
}
