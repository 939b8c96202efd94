package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"vmtherm/internal/checkpoint"
	"vmtherm/internal/dataset"
	"vmtherm/internal/telemetry"
)

// loadTwinTrace loads the committed replay trace shared with the golden test.
func loadTwinTrace(t *testing.T) []telemetry.Reading {
	t.Helper()
	f, err := os.Open(traceFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	readings, err := dataset.ReadTrace(f)
	if err != nil {
		t.Fatal(err)
	}
	return readings
}

// newTwinController builds a fresh source-driven controller over the trace
// with a recorder teed in, mirroring `vmtherm-fleetd -source trace -record`.
func newTwinController(t *testing.T, readings []telemetry.Reading) (*Controller, *telemetry.Recorder) {
	t.Helper()
	src, err := telemetry.NewTraceSource(readings, telemetry.TraceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := NewWithSource(traceConfig(), src, syntheticStable)
	if err != nil {
		t.Fatal(err)
	}
	rec := &telemetry.Recorder{}
	ctl.TeeTelemetry(rec.Emit)
	return ctl, rec
}

// zeroClocks strips the wall-clock fields; everything else must be
// bit-identical between the twins.
func zeroClocks(reports []RoundReport) []RoundReport {
	for i := range reports {
		reports[i].Latency = 0
		reports[i].ControlLatency = 0
	}
	return reports
}

func reportJSON(t *testing.T, reports []RoundReport) []byte {
	t.Helper()
	js, err := json.MarshalIndent(reports, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return js
}

// traceBytes serializes recorded readings the way `-record` does.
func traceBytes(t *testing.T, readings []telemetry.Reading) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := dataset.WriteTrace(&buf, readings); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCheckpointRestoreTwin is the crash-safety contract: a controller
// checkpointed at round k, torn down, and restored into a fresh process
// continues with RoundReports AND recorded trace bytes bit-identical to a
// twin that never restarted — the restart is invisible in every observable.
func TestCheckpointRestoreTwin(t *testing.T) {
	const rounds, cut = 12, 5
	readings := loadTwinTrace(t)

	// Twin A: never restarted.
	ctlA, recA := newTwinController(t, readings)
	reportsA, err := runRounds(ctlA, rounds)
	if err != nil {
		t.Fatal(err)
	}
	zeroClocks(reportsA)

	// Twin B: run to the cut, checkpoint through the real file store, drop.
	mgr := checkpoint.NewManager(filepath.Join(t.TempDir(), "ckpt"), 0)
	ctlB, _ := newTwinController(t, readings)
	if _, err := runRounds(ctlB, cut); err != nil {
		t.Fatal(err)
	}
	stB, err := ctlB.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	liveAtCut := ctlB.RestoredSessions()
	if liveAtCut == 0 {
		t.Fatal("no live sessions at the cut; the twin test would prove nothing")
	}
	if err := mgr.Save(stB); err != nil {
		t.Fatal(err)
	}
	ctlB = nil

	// "New process": fresh manager, fresh controller, fresh source.
	mgr2 := checkpoint.NewManager(mgr.Path(), 0)
	restored, err := mgr2.Restore()
	if err != nil {
		t.Fatal(err)
	}
	if restored == nil {
		t.Fatal("Restore returned cold start; checkpoint file missing")
	}
	ctlB2, recB2 := newTwinController(t, readings)
	if err := ctlB2.Restore(restored); err != nil {
		t.Fatal(err)
	}
	if got := ctlB2.RestoredSessions(); got != liveAtCut {
		t.Fatalf("restored %d sessions, want %d (cold sessions after restore)", got, liveAtCut)
	}

	reportsB2, err := runRounds(ctlB2, rounds-cut)
	if err != nil {
		t.Fatal(err)
	}
	zeroClocks(reportsB2)

	wantJS := reportJSON(t, reportsA[cut:])
	gotJS := reportJSON(t, reportsB2)
	if !bytes.Equal(gotJS, wantJS) {
		t.Fatalf("restored twin's reports diverged from the never-restarted twin\nwant:\n%s\ngot:\n%s", wantJS, gotJS)
	}

	// Trace bytes: the restored twin records only post-cut arrivals (its
	// restore fast-forward discards replayed history), so twin A's capture
	// filtered to after the checkpoint clock must match byte for byte.
	var wantPost []telemetry.Reading
	for _, r := range recA.Readings {
		if r.AtS > restored.SourceNowS {
			wantPost = append(wantPost, r)
		}
	}
	if len(recB2.Readings) == 0 || len(wantPost) == 0 {
		t.Fatal("post-cut capture is empty; the byte comparison would be vacuous")
	}
	if got, want := traceBytes(t, recB2.Readings), traceBytes(t, wantPost); !bytes.Equal(got, want) {
		t.Fatalf("restored twin's recorded trace bytes diverged (got %d bytes, want %d)", len(got), len(want))
	}

	// No session went cold across the restart: the continuation rounds must
	// not evict or re-create anything the cut had live.
	for _, r := range reportsB2 {
		if r.Evicted != 0 {
			t.Fatalf("restored twin evicted %d sessions in round %d: warm state was lost", r.Evicted, r.Round)
		}
		if r.SessionsLive < liveAtCut {
			t.Fatalf("round %d has %d live sessions, below the %d restored", r.Round, r.SessionsLive, liveAtCut)
		}
	}
}

// TestCheckpointRestoreAfterKillMidWrite covers the SIGKILL-mid-checkpoint
// crash: the newest generation is torn (simulating power loss during the
// write path before the atomic rename completed, or a corrupted disk
// block), and the restart must fall back to the previous good generation —
// with zero evicted sessions — and continue bit-identically to the twin
// from that earlier cut.
func TestCheckpointRestoreAfterKillMidWrite(t *testing.T) {
	const rounds, firstCut, secondCut = 12, 3, 5
	readings := loadTwinTrace(t)

	ctlA, _ := newTwinController(t, readings)
	reportsA, err := runRounds(ctlA, rounds)
	if err != nil {
		t.Fatal(err)
	}
	zeroClocks(reportsA)

	base := filepath.Join(t.TempDir(), "ckpt")
	mgr := checkpoint.NewManager(base, 0)
	ctlB, _ := newTwinController(t, readings)
	if _, err := runRounds(ctlB, firstCut); err != nil {
		t.Fatal(err)
	}
	st1, err := ctlB.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	liveAtFirstCut := ctlB.RestoredSessions()
	if err := mgr.Save(st1); err != nil {
		t.Fatal(err)
	}
	if _, err := runRounds(ctlB, secondCut-firstCut); err != nil {
		t.Fatal(err)
	}
	st2, err := ctlB.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if err := mgr.Save(st2); err != nil {
		t.Fatal(err)
	}

	// The SIGKILL: tear the newest generation mid-frame.
	gens := checkpoint.NewStore(base).Generations()
	newest := gens[1] // second save landed in slot 2
	b, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(newest, b[:len(b)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	mgr2 := checkpoint.NewManager(base, 0)
	restored, err := mgr2.Restore()
	if err != nil {
		t.Fatal(err)
	}
	if restored == nil {
		t.Fatal("restore fell through to cold start despite a good previous generation")
	}
	if restored.Round != firstCut {
		t.Fatalf("restored round %d, want the previous good generation's %d", restored.Round, firstCut)
	}

	ctlB2, _ := newTwinController(t, readings)
	if err := ctlB2.Restore(restored); err != nil {
		t.Fatal(err)
	}
	if got := ctlB2.RestoredSessions(); got != liveAtFirstCut {
		t.Fatalf("restored %d sessions, want %d — sessions went cold across the crash", got, liveAtFirstCut)
	}

	reportsB2, err := runRounds(ctlB2, rounds-firstCut)
	if err != nil {
		t.Fatal(err)
	}
	zeroClocks(reportsB2)
	for _, r := range reportsB2 {
		if r.Evicted != 0 {
			t.Fatalf("round %d evicted %d sessions after crash recovery", r.Round, r.Evicted)
		}
	}
	if got, want := reportJSON(t, reportsB2), reportJSON(t, reportsA[firstCut:]); !bytes.Equal(got, want) {
		t.Fatalf("crash-recovered twin diverged from the never-restarted twin\nwant:\n%s\ngot:\n%s", want, got)
	}
}

// TestCheckpointRestoreStreamingState: the streaming-ingest machinery's
// durable state — cumulative counters, per-round delta anchors, the live
// hotspot index — must survive a restore, so a restarted daemon that had
// been pushed to serves the same hotspot set and continuous totals.
func TestCheckpointRestoreStreamingState(t *testing.T) {
	cfg := streamGridConfig()
	src := &gridSource{}
	ctl, err := NewWithSource(cfg, src, syntheticStable)
	if err != nil {
		t.Fatal(err)
	}

	for round := 0; round < 3; round++ {
		readings := make([]Reading, 24)
		for i := range readings {
			util := float64(i) / float64(len(readings)-1)
			readings[i] = Reading{
				HostID:  fmt.Sprintf("h%03d", i),
				AtS:     src.now + 0.5,
				TempC:   30 + 45*util,
				Util:    util,
				MemFrac: 0.5,
			}
		}
		results := make([]IngestResult, len(readings))
		ctl.IngestBatch(readings, true, results)
		if _, err := ctl.RunRound(); err != nil {
			t.Fatal(err)
		}
	}

	st, err := ctl.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if st.Stream == nil {
		t.Fatal("checkpoint of a pushed-to controller has no stream state")
	}
	wantA, wantC, wantD, wantP := ctl.StreamTotals()
	wantHot, _ := ctl.StreamHotspotsInto(nil)
	if wantA == 0 || len(wantHot) == 0 {
		t.Fatalf("streaming run too tame (applied %d, hotspots %d)", wantA, len(wantHot))
	}

	ctl2, err := NewWithSource(cfg, &gridSource{}, syntheticStable)
	if err != nil {
		t.Fatal(err)
	}
	if err := ctl2.Restore(st); err != nil {
		t.Fatal(err)
	}
	gotA, gotC, gotD, gotP := ctl2.StreamTotals()
	if gotA != wantA || gotC != wantC || gotD != wantD || gotP != wantP {
		t.Fatalf("restored stream totals (%d,%d,%d,%d) != checkpointed (%d,%d,%d,%d)",
			gotA, gotC, gotD, gotP, wantA, wantC, wantD, wantP)
	}
	gotHot, ok := ctl2.StreamHotspotsInto(nil)
	if !ok {
		t.Fatal("restoring a stream section installed no index")
	}
	if len(gotHot) != len(wantHot) {
		t.Fatalf("restored index has %d hotspots, want %d", len(gotHot), len(wantHot))
	}
	for i := range gotHot {
		if gotHot[i] != wantHot[i] {
			t.Fatalf("hotspot %d: restored %+v != checkpointed %+v", i, gotHot[i], wantHot[i])
		}
	}

	// The first restored round must report per-round deltas, not history:
	// with no pushes between restore and round, stream deltas are zero.
	rep, err := ctl2.RunRound()
	if err != nil {
		t.Fatal(err)
	}
	if rep.StreamApplied != 0 || rep.StreamCreated != 0 || rep.StreamDeferred != 0 {
		t.Fatalf("first restored round replayed streaming history: %+v", rep)
	}
}

// newSimTwin builds a small simulated fleet with load spread over a few
// machines, so rounds anchor several distinct deployments.
func newSimTwin(t *testing.T) *Controller {
	t.Helper()
	cfg := traceConfig()
	cfg.Racks, cfg.HostsPerRack = 2, 4
	ctl, err := New(cfg, syntheticStable)
	if err != nil {
		t.Fatal(err)
	}
	for i, host := range []string{"r0-h0", "r0-h2", "r1-h1", "r1-h3"} {
		if err := ctl.PlaceAt(host, HeavyVMSpec("vm-"+host, i+1, 4)); err != nil {
			t.Fatal(err)
		}
	}
	return ctl
}

// TestCheckpointSimCarriesAnchorCache: a simulated substrate is not
// captured, so over one Checkpoint/Restore carry the anchor cache and
// nothing else — which is enough for a restarted run of the same seed to
// re-predict nothing and serve the original's anchors. Sim and trace states
// do not restore into each other.
func TestCheckpointSimCarriesAnchorCache(t *testing.T) {
	const rounds = 6
	ctl := newSimTwin(t)
	reports, err := runRounds(ctl, rounds)
	if err != nil {
		t.Fatal(err)
	}
	cold := 0
	for _, r := range reports {
		cold += r.AnchorMisses
	}
	if cold == 0 {
		t.Fatal("cold simulated run had no anchor misses; the restore would prove nothing")
	}
	st, err := ctl.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if st.SourceName != "sim" || st.AnchorCache == nil || st.Round != 0 || len(st.Engine.Sessions) != 0 {
		t.Fatalf("sim checkpoint = source %q, cache %v, round %d, %d sessions; want the cache section only",
			st.SourceName, st.AnchorCache, st.Round, len(st.Engine.Sessions))
	}

	restarted := newSimTwin(t)
	if err := restarted.Restore(st); err != nil {
		t.Fatal(err)
	}
	reports, err = runRounds(restarted, rounds)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range reports {
		if r.AnchorMisses != 0 {
			t.Fatalf("restarted round %d had %d anchor misses, want 0", r.Round, r.AnchorMisses)
		}
	}
	// Same seed, same rounds: both fleets now sit on the same deployments,
	// and the restarted one must serve the original's anchors for them.
	want, _, _, err := anchorsOf(ctl)
	if err != nil {
		t.Fatal(err)
	}
	got, hits, misses, err := anchorsOf(restarted)
	if err != nil || misses != 0 || hits == 0 {
		t.Fatalf("restarted anchors: %d hits %d misses (err %v), want hits only", hits, misses, err)
	}
	if !maps.Equal(got, want) {
		t.Fatalf("restarted anchors %v != original %v", got, want)
	}

	traceCtl, _ := newTwinController(t, loadTwinTrace(t))
	if err := traceCtl.Restore(st); err == nil {
		t.Fatal("a trace controller accepted a simulated fleet's checkpoint")
	}
	traceSt, err := traceCtl.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if err := newSimTwin(t).Restore(traceSt); err == nil {
		t.Fatal("a simulated fleet accepted a trace checkpoint")
	}
}

// TestCheckpointRestoreQuantizerMismatch: anchor keys address different
// buckets under different bucket widths — bucket 25 is util 0.25 at width
// 0.01 and util 0.125 at 0.005 — so a checkpoint written under other widths
// (an older binary's) must drop the cache section (and say so) while
// everything else restores.
func TestCheckpointRestoreQuantizerMismatch(t *testing.T) {
	readings := loadTwinTrace(t)
	ctl, _ := newTwinController(t, readings)
	if _, err := runRounds(ctl, 5); err != nil {
		t.Fatal(err)
	}
	st, err := ctl.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if n := len(st.AnchorCache.Cur) + len(st.AnchorCache.Prev); n == 0 || st.AnchorCache.Quant.UtilQuant != 0.01 {
		t.Fatalf("checkpoint cache section: %d anchors at %+v", n, st.AnchorCache.Quant)
	}

	// restoreFiner restores state into a fresh controller with half-width
	// utilization buckets and runs its first round.
	restoreFiner := func(state *checkpoint.State) (*Controller, RoundReport) {
		t.Helper()
		src, err := telemetry.NewTraceSource(readings, telemetry.TraceOptions{})
		if err != nil {
			t.Fatal(err)
		}
		cfg := traceConfig()
		cfg.AnchorQuantUtil = 0.005
		finer, err := NewWithSource(cfg, src, syntheticStable)
		if err != nil {
			t.Fatal(err)
		}
		if err := finer.Restore(state); err != nil {
			t.Fatal(err)
		}
		if got, want := finer.RestoredSessions(), ctl.RestoredSessions(); got != want || want == 0 {
			t.Fatalf("restored %d sessions, want %d: the cache skip must not cost the sessions", got, want)
		}
		rep, err := finer.RunRound()
		if err != nil {
			t.Fatal(err)
		}
		return finer, rep
	}

	finer, rep := restoreFiner(st)
	if rep.Round != st.Round+1 || rep.AnchorMisses == 0 || rep.AnchorHits != 0 {
		t.Fatalf("first restored round %d: %d hits %d misses, want round %d re-predicting every anchor",
			rep.Round, rep.AnchorHits, rep.AnchorMisses, st.Round+1)
	}
	if n := len(rep.RecentErrors); n == 0 || !strings.Contains(rep.RecentErrors[n-1], "anchor cache skipped") {
		t.Fatalf("RecentErrors = %q, want the skipped cache section noted", rep.RecentErrors)
	}
	// The saved entries must have no influence at all: the cache after the
	// first round equals that of a twin restored from the same state with
	// the cache section cut out.
	bare := *st
	bare.AnchorCache = nil
	control, _ := restoreFiner(&bare)
	gotCur, gotPrev := finer.cache.DumpGenerations()
	wantCur, wantPrev := control.cache.DumpGenerations()
	if !slices.Equal(gotCur, wantCur) || !slices.Equal(gotPrev, wantPrev) {
		t.Fatalf("anchors after a mismatched restore %v/%v differ from a cache-less restore %v/%v",
			gotCur, gotPrev, wantCur, wantPrev)
	}
}

// TestCheckpointGuards: the checkpoint/restore pair must refuse states it
// cannot faithfully rebuild.
func TestCheckpointGuards(t *testing.T) {
	readings := loadTwinTrace(t)
	ctl, _ := newTwinController(t, readings)
	if _, err := runRounds(ctl, 2); err != nil {
		t.Fatal(err)
	}
	st, err := ctl.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}

	// Source-kind mismatch must be rejected.
	fresh, _ := newTwinController(t, readings)
	bad := *st
	bad.SourceName = "scrape"
	if err := fresh.Restore(&bad); err == nil {
		t.Fatal("Restore accepted a checkpoint from a different source kind")
	}

	// Nil state must be rejected.
	if err := fresh.Restore(nil); err == nil {
		t.Fatal("Restore accepted a nil state")
	}
}
