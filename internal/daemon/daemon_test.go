package daemon

import (
	"flag"
	"io"
	"net/http"
	"path/filepath"
	"strings"
	"testing"

	"vmtherm/internal/fleet"
)

// traceFile is the recorded 8-host trace the fleet goldens replay.
const traceFile = "../fleet/testdata/trace_pr3.csv"

var synthetic = fleet.SyntheticStablePredictor(75)

// assemble parses args over fleetd's defaults and builds the controller.
func assemble(t *testing.T, args ...string) (*Controller, error) {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	f := Bind(fs, Defaults{Source: "sim", Racks: 2, Hosts: 4})
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return f.NewController(f.Config(), synthetic)
}

// TestPaceComesFromResolvedConfig: `-update 0` means "the default Δ_update"
// — the controller resolves it to 15 s — so the pacing interval handed to
// the daemons must be 15 s too. fleetd used to pace from the raw flag:
// `-source scrape -update 0` computed a zero interval and scraped the
// exporter back to back.
func TestPaceComesFromResolvedConfig(t *testing.T) {
	for _, tc := range []struct {
		name           string
		args           []string
		updateS, paceS float64
	}{
		{"scrape", []string{"-source", "scrape", "-scrape-url", "http://127.0.0.1:1/metrics", "-update", "0"}, 15, 15},
		{"sim", []string{"-update", "0"}, 15, 15},
		{"trace at 100x", []string{"-source", "trace", "-trace", traceFile, "-speed", "100", "-update", "0"}, 15, 0.15},
		{"trace unpaced", []string{"-source", "trace", "-trace", traceFile, "-update", "30"}, 30, 30},
	} {
		ctl, err := assemble(t, tc.args...)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := ctl.Config().UpdateEveryS; got != tc.updateS {
			t.Errorf("%s: resolved Δ_update = %v, want %v", tc.name, got, tc.updateS)
		}
		if ctl.PaceS != tc.paceS {
			t.Errorf("%s: PaceS = %v, want %v", tc.name, ctl.PaceS, tc.paceS)
		}
	}
}

// TestRestartResumesWarm drives the whole assembly path twice over the same
// files: the first process's Close leaves a final checkpoint, and a second
// assembly with the same flags restores it — it continues at the next round
// with every session live and nothing to re-predict.
func TestRestartResumesWarm(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-source", "trace", "-trace", traceFile, "-loop",
		"-checkpoint-file", filepath.Join(dir, "ckpt"), "-checkpoint-every", "0"}

	first, err := assemble(t, args...)
	if err != nil {
		t.Fatal(err)
	}
	reports, err := first.Run(6)
	if err != nil {
		t.Fatal(err)
	}
	last := reports[len(reports)-1]
	if st, err := first.Ckpt.SaveIfDue(first.Checkpoint, false); st != nil || err != nil {
		t.Fatalf("-checkpoint-every 0 wrote a periodic checkpoint (st %v, err %v)", st, err)
	}
	if err := first.Close(); err != nil {
		t.Fatal(err)
	}

	second, err := assemble(t, args...)
	if err != nil {
		t.Fatal(err)
	}
	if got := second.RestoredSessions(); got != last.SessionsLive {
		t.Fatalf("restored %d sessions, want the %d live at shutdown", got, last.SessionsLive)
	}
	rep, err := second.RunRound()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Round != last.Round+1 || rep.SessionsLive != last.SessionsLive {
		t.Errorf("continued at round %d with %d sessions, want round %d with %d",
			rep.Round, rep.SessionsLive, last.Round+1, last.SessionsLive)
	}
	if rep.AnchorHits == 0 || rep.AnchorMisses != 0 {
		t.Errorf("first restored round: %d hits %d misses, want hits only", rep.AnchorHits, rep.AnchorMisses)
	}
	if st := second.Ckpt.Status(); st.Restores != 1 {
		t.Errorf("checkpoint status = %+v, want one restore", st)
	}
}

// TestSimRestartWarmsAnchorCache is the -source sim restart through the real
// flags: a simulated substrate is not captured, so the checkpoint carries the
// anchor cache alone — and the same seed replays the same deployments, so a
// restarted run re-predicts nothing where the cold run missed.
func TestSimRestartWarmsAnchorCache(t *testing.T) {
	args := []string{"-checkpoint-file", filepath.Join(t.TempDir(), "ckpt"), "-checkpoint-every", "0"}
	run := func() (misses, hits int, ctl *Controller) {
		t.Helper()
		ctl, err := assemble(t, args...)
		if err != nil {
			t.Fatal(err)
		}
		for i, host := range []string{"r0-h0", "r0-h3", "r1-h1"} {
			if err := ctl.PlaceAt(host, fleet.HeavyVMSpec(host+"-vm", i+1, 4)); err != nil {
				t.Fatal(err)
			}
		}
		reports, err := ctl.Run(6)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range reports {
			misses += r.AnchorMisses
			hits += r.AnchorHits
		}
		return misses, hits, ctl
	}

	misses, _, first := run()
	if misses == 0 {
		t.Fatal("cold simulated run had no anchor misses; the restart would prove nothing")
	}
	if first.Ckpt.Status().Restores != 0 {
		t.Fatalf("cold start counted a restore: %+v", first.Ckpt.Status())
	}
	if err := first.Close(); err != nil {
		t.Fatal(err)
	}

	misses, hits, second := run()
	if misses != 0 || hits == 0 {
		t.Errorf("restarted simulated run: %d hits %d misses, want hits only", hits, misses)
	}
	if st := second.Ckpt.Status(); st.Restores != 1 {
		t.Errorf("checkpoint status = %+v, want one restore", st)
	}
}

// TestListenServesThenDrains walks the daemons' one HTTP path: Listen binds
// before it returns (a second Listen on the same port is refused there, not
// from a goroutine), the handler answers, and Drain comes back only after
// the serving goroutine has exited — cleanly, so it reports nothing.
func TestListenServesThenDrains(t *testing.T) {
	srv, err := Listen("127.0.0.1:0", http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		_, _ = io.WriteString(w, "ok")
	}))
	if err != nil {
		t.Fatal(err)
	}
	if second, err := Listen(srv.Addr(), http.NotFoundHandler()); err == nil {
		_ = second.Drain()
		t.Fatalf("a second Listen on %s succeeded", srv.Addr())
	} else if !strings.Contains(err.Error(), "address already in use") {
		t.Fatalf("occupied port: %v, want a bind error", err)
	}
	resp, err := http.Get("http://" + srv.Addr() + "/")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(body) != "ok" {
		t.Fatalf("served %q", body)
	}
	select {
	case <-srv.Done():
		t.Fatal("Done closed while serving")
	default:
	}
	if err := srv.Drain(); err != nil {
		t.Fatalf("clean drain reported %v", err)
	}
	<-srv.Done()
	if _, err := http.Get("http://" + srv.Addr() + "/"); err == nil {
		t.Fatal("the port still answers after Drain")
	}
}
