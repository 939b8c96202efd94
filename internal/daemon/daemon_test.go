package daemon

import (
	"errors"
	"flag"
	"io"
	"path/filepath"
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
// files: the first process's Close leaves a final checkpoint and an anchor
// cache file, and a second assembly with the same flags restores both — it
// continues at the next round with every session live and nothing to
// re-predict.
func TestRestartResumesWarm(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-source", "trace", "-trace", traceFile, "-loop",
		"-checkpoint-file", filepath.Join(dir, "ckpt"), "-checkpoint-every", "0",
		"-anchor-cache-file", filepath.Join(dir, "anchors.bin")}

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
	if st := second.Ckpt.Status(); st.Restores != 1 {
		t.Errorf("checkpoint status = %+v, want one restore", st)
	}

	// The anchor file alone (no checkpoint) warms a cold controller's cache.
	third, err := assemble(t, "-source", "trace", "-trace", traceFile,
		"-anchor-cache-file", filepath.Join(dir, "anchors.bin"))
	if err != nil {
		t.Fatal(err)
	}
	if rep, err = third.RunRound(); err != nil || rep.AnchorHits == 0 || rep.AnchorMisses != 0 {
		t.Errorf("first round over the warmed cache: %d hits %d misses (err %v), want hits only",
			rep.AnchorHits, rep.AnchorMisses, err)
	}
}

// TestCheckpointRefusedOverSimulatedFleet: a simulated substrate is not
// captured, so -checkpoint-file with -source sim must fail at assembly.
func TestCheckpointRefusedOverSimulatedFleet(t *testing.T) {
	_, err := assemble(t, "-checkpoint-file", filepath.Join(t.TempDir(), "ckpt"))
	if !errors.Is(err, ErrCheckpointNeedsSource) {
		t.Fatalf("err = %v, want ErrCheckpointNeedsSource", err)
	}
}
