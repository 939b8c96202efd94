package checkpoint

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"time"

	"vmtherm/internal/anchorcache"
	"vmtherm/internal/core"
	"vmtherm/internal/engine"
	"vmtherm/internal/telemetry"
	"vmtherm/internal/vmm"
	"vmtherm/internal/workload"
)

// sampleState builds a representative state: warm sessions, both anchor
// cache generations, a pending queue exercising every profile kind, and
// non-trivial counters.
func sampleState(t *testing.T) *State {
	t.Helper()
	return &State{
		SavedUnixNano: 1754600000_000000000,
		Round:         17,
		SourceName:    "trace",
		SourceNowS:    255,
		Engine: engine.State{
			Sessions: []engine.SessionState{
				{
					ID: "r0-h0",
					Predictor: core.PredictorState{
						Curve:       core.Curve{Phi0: 35, Stable: 71.5, TBreakS: 600, DeltaS: 30},
						Config:      core.DynamicConfig{Lambda: 0.8, UpdateEveryS: 15, GapS: 60},
						Gamma:       2.25,
						Updates:     17,
						LastUpdateS: 255,
						Seeded:      true,
					},
					StableC:   71.5,
					AnchorAtS: 0,
					LastAtS:   255,
				},
			},
		},
		Latest: []telemetry.Reading{
			{HostID: "r0-h0", AtS: 255, TempC: 68.25, Util: 0.93, MemFrac: 0.4},
			{HostID: "r0-h1", AtS: 255, TempC: 41, Util: 0.2, MemFrac: 0.1},
		},
		Order:      []string{"r0-h0", "r0-h1"},
		OrderDirty: false,
		Proposals: []Proposal{
			{VMID: "hot-0", FromHostID: "r0-h0", ToHostID: "r0-h1", MarginC: 3.5},
		},
		PendingVMs: []workload.VMSpec{
			{
				ID:     "vm-pend",
				Config: vmm.VMConfig{VCPUs: 4, MemoryGB: 8},
				Tasks: []workload.TaskSpec{
					{Task: vmm.Task{ID: "t0", Class: vmm.CPUBound, CPUFraction: 0.9}, Profile: workload.Constant{Level: 0.9}},
					{Task: vmm.Task{ID: "t1", Class: vmm.MemBound, CPUFraction: 0.5}, Profile: workload.Sine{Base: 0.5, Amplitude: 0.3, Period: 300}},
					{Task: vmm.Task{ID: "t2", Class: vmm.CPUBound, CPUFraction: 0.5}, Profile: workload.Bursty{Low: 0.1, High: 0.9, Period: 60, DutyCycle: 0.25}},
					{Task: vmm.Task{ID: "t3", Class: vmm.IOBound, CPUFraction: 0.1}}, // nil profile
				},
			},
		},
		Ingest: IngestTotals{
			Received: 4080, Dropped: 3, Superseded: 12,
			Rejected: [telemetry.NumRejectReasons]int64{0, 1, 0, 0, 2},
		},
		RecentErrors: []string{"round 9: ingest: rejected 1 implausible readings"},
		LastRejected: 3,
		LastFanout:   5,
		Stream: &StreamState{
			Applied: 900, Deferred: 2, Predictions: 120,
			Hotspots: []Hotspot{{HostID: "r0-h0", PredictedTempC: 73.5, MarginC: 3.5, UncertaintyC: 0.5}},
		},
		AnchorCache: &CacheState{
			Quant: anchorcache.DefaultQuantizer(),
			Cur:   []anchorcache.Entry{{Key: 7, Value: 55.5}, {Key: 9, Value: 61.25}},
			Prev:  []anchorcache.Entry{{Key: 3, Value: 48}},
			Stats: anchorcache.Stats{Hits: 120, Misses: 18, Evicted: 4, Invalidations: 1},
			Epoch: 1,
		},
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	st := sampleState(t)
	var buf bytes.Buffer
	n, err := Encode(&buf, 42, st)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("Encode reported %d bytes, wrote %d", n, buf.Len())
	}
	got, seq, err := Decode(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if seq != 42 {
		t.Fatalf("sequence %d, want 42", seq)
	}
	if !reflect.DeepEqual(got, st) {
		t.Fatalf("round trip diverged:\ngot:  %+v\nwant: %+v", got, st)
	}
	// The sine profile must still evaluate (not just structurally match).
	p := got.PendingVMs[0].Tasks[1].Profile
	if v := p.At(75); math.Abs(v-0.8) > 1e-12 {
		t.Fatalf("restored sine profile At(75) = %v, want 0.8", v)
	}
}

// TestDecodesEngineNextID: engine.State used to carry the prediction
// service's session id counter, NextID, and every checkpoint written then
// holds the field. A payload gob-encoded with it (sampleState's sessions
// beside NextID 4) still decodes, to exactly sampleState: gob skips the
// field the type no longer has.
func TestDecodesEngineNextID(t *testing.T) {
	want := sampleState(t)
	withNextID := reflect.TypeOf(struct {
		NextID   uint64
		Sessions []engine.SessionState
	}{})
	cur := reflect.TypeOf(State{})
	fields := make([]reflect.StructField, cur.NumField())
	for i := range fields {
		f := cur.Field(i)
		fields[i] = reflect.StructField{Name: f.Name, Type: f.Type, Tag: f.Tag}
		if f.Name == "Engine" {
			fields[i].Type = withNextID
		}
	}
	old := reflect.New(reflect.StructOf(fields)).Elem()
	for i := range fields {
		if fields[i].Name == "Engine" {
			old.Field(i).Field(0).SetUint(4)
			old.Field(i).Field(1).Set(reflect.ValueOf(want.Engine.Sessions))
		} else {
			old.Field(i).Set(reflect.ValueOf(want).Elem().Field(i))
		}
	}
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(old.Interface()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(payload.Bytes(), []byte("NextID")) {
		t.Fatal("the payload does not carry NextID")
	}
	frame := append(fileMagic[:0:0], fileMagic[:]...)
	frame = binary.LittleEndian.AppendUint32(frame, formatVersion)
	frame = binary.LittleEndian.AppendUint64(frame, 9)
	frame = binary.LittleEndian.AppendUint64(frame, uint64(payload.Len()))
	frame = append(frame, payload.Bytes()...)
	frame = binary.LittleEndian.AppendUint32(frame, crc32.ChecksumIEEE(frame))
	got, seq, err := Decode(bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	if seq != 9 || !reflect.DeepEqual(got, want) {
		t.Fatalf("decoded seq %d, state\n%+v\nwant seq 9, state\n%+v", seq, got, want)
	}
}

func TestEncodeIsDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	if _, err := Encode(&a, 7, sampleState(t)); err != nil {
		t.Fatal(err)
	}
	if _, err := Encode(&b, 7, sampleState(t)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("identical states encoded to different bytes")
	}
}

// TestEncodeCacheDeterministic: the bytes a cache reaches disk as depend on
// its contents and generation split only, never on insertion or map order —
// two caches filled in opposite orders across a rotation encode identically,
// with both generations populated.
func TestEncodeCacheDeterministic(t *testing.T) {
	encode := func(keys []anchorcache.Key) []byte {
		t.Helper()
		c, err := anchorcache.New(anchorcache.Config{MaxEntries: 8})
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range keys {
			c.Put(k, float64(k)+0.5)
		}
		cur, prev := c.DumpGenerations()
		if len(cur) == 0 || len(prev) == 0 {
			t.Fatalf("generations %d/%d: the cache must span both", len(cur), len(prev))
		}
		var buf bytes.Buffer
		st := &State{SourceName: "sim", AnchorCache: &CacheState{Quant: c.Quant(), Cur: cur, Prev: prev, Stats: c.Stats()}}
		if _, err := Encode(&buf, 1, st); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	// Four keys fill the young generation; the fifth rotates it to old.
	a := encode([]anchorcache.Key{1, 2, 3, 4, 11, 12, 13})
	b := encode([]anchorcache.Key{4, 3, 2, 1, 13, 12, 11})
	if !bytes.Equal(a, b) {
		t.Fatal("the same cache contents encoded to different bytes")
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	var buf bytes.Buffer
	if _, err := Encode(&buf, 1, sampleState(t)); err != nil {
		t.Fatal(err)
	}
	orig := buf.Bytes()

	// Truncations at every region boundary and a few interior cuts.
	for _, cut := range []int{0, 4, 8, 12, 20, 27, len(orig) / 2, len(orig) - 5, len(orig) - 1} {
		if _, _, err := Decode(bytes.NewReader(orig[:cut])); !errors.Is(err, ErrFormat) {
			t.Errorf("truncation at %d: err = %v, want ErrFormat", cut, err)
		}
	}
	// Single-bit flips across the whole frame (stride keeps the test fast;
	// the anchor-cache twin test covers exhaustive flips on a small file).
	for byteIdx := 0; byteIdx < len(orig); byteIdx += 7 {
		mut := append([]byte(nil), orig...)
		mut[byteIdx] ^= 0x10
		if _, _, err := Decode(bytes.NewReader(mut)); err == nil {
			t.Errorf("bit flip at byte %d accepted", byteIdx)
		}
	}
	// Forged payload length.
	forged := append([]byte(nil), orig...)
	for i := 20; i < 28; i++ {
		forged[i] = 0xff
	}
	if _, _, err := Decode(bytes.NewReader(forged)); !errors.Is(err, ErrFormat) {
		t.Errorf("forged length: err = %v, want ErrFormat", err)
	}
	// A forged length under the bound must cost what the file holds, not the
	// gigabyte it claims.
	binary.LittleEndian.PutUint64(forged[20:28], maxPayload-1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := Decode(bytes.NewReader(forged))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrFormat) {
		t.Errorf("forged in-bound length: err = %v, want ErrFormat", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Errorf("forged in-bound length allocated %d bytes for a %d-byte file", grew, len(forged))
	}
}

func TestStoreTwoGenerations(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "ckpt")
	s := NewStore(base)

	// Cold start: nothing to load.
	if _, _, err := s.Load(); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("empty store Load err = %v, want ErrNoCheckpoint", err)
	}

	st := sampleState(t)
	st.Round = 1
	if _, err := s.Save(st); err != nil {
		t.Fatal(err)
	}
	st.Round = 2
	if _, err := s.Save(st); err != nil {
		t.Fatal(err)
	}
	st.Round = 3
	if _, err := s.Save(st); err != nil {
		t.Fatal(err)
	}

	// A fresh store (fresh process) must pick the newest generation.
	got, seq, err := NewStore(base).Load()
	if err != nil {
		t.Fatal(err)
	}
	if seq != 3 || got.Round != 3 {
		t.Fatalf("loaded seq %d round %d, want 3/3", seq, got.Round)
	}

	// Both generation files exist and hold different sequences.
	gens := s.Generations()
	for _, p := range gens {
		if _, err := os.Stat(p); err != nil {
			t.Fatalf("generation %s missing: %v", p, err)
		}
	}
}

// TestStoreLoadSweepsStaleTemps: a process killed between Save's CreateTemp
// and Rename leaves <base>.tmp-* behind with nobody to remove it; the next
// process's Load must, without touching the generations or anyone else's
// files.
func TestStoreLoadSweepsStaleTemps(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "ckpt")
	if _, err := NewStore(base).Save(sampleState(t)); err != nil {
		t.Fatal(err)
	}
	stale := []string{base + ".tmp-1234567", base + ".tmp-abc"}
	kept := []string{base + ".1", base + "2.tmp-1", filepath.Join(dir, "run.csv")}
	for _, p := range append(stale, kept[1:]...) {
		if err := os.WriteFile(p, []byte("half a checkpoint"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, seq, err := NewStore(base).Load(); err != nil || seq != 1 {
		t.Fatalf("Load: seq %d err %v", seq, err)
	}
	for _, p := range stale {
		if _, err := os.Stat(p); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("stale temp %s survived Load (stat err %v)", p, err)
		}
	}
	for _, p := range kept {
		if _, err := os.Stat(p); err != nil {
			t.Errorf("Load removed %s: %v", p, err)
		}
	}
}

// TestStoreSurvivesTornWrite is the SIGKILL-mid-checkpoint contract: when
// the newest generation is torn (truncated) or bit-flipped, Load falls back
// to the previous good generation, and the next Save targets the bad slot.
func TestStoreSurvivesTornWrite(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "ckpt")
	s := NewStore(base)
	st := sampleState(t)
	st.Round = 1
	if _, err := s.Save(st); err != nil { // gen .1, seq 1
		t.Fatal(err)
	}
	st.Round = 2
	if _, err := s.Save(st); err != nil { // gen .2, seq 2
		t.Fatal(err)
	}

	newest := s.Generations()[1]
	b, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	for name, mangle := range map[string][]byte{
		"torn":    b[:len(b)/3],
		"flipped": flipOneBit(b, len(b)/2),
		"empty":   {},
	} {
		if err := os.WriteFile(newest, mangle, 0o644); err != nil {
			t.Fatal(err)
		}
		fresh := NewStore(base)
		got, seq, err := fresh.Load()
		if err != nil {
			t.Fatalf("%s newest generation: Load err = %v, want fallback to previous", name, err)
		}
		if seq != 1 || got.Round != 1 {
			t.Fatalf("%s newest generation: recovered seq %d round %d, want previous good 1/1", name, seq, got.Round)
		}
		// The next save must overwrite the corrupt slot, not the good one.
		st.Round = 9
		if _, err := fresh.Save(st); err != nil {
			t.Fatal(err)
		}
		got, seq, err = NewStore(base).Load()
		if err != nil || seq != 2 || got.Round != 9 {
			t.Fatalf("%s: after repair save: seq %d round %d err %v", name, seq, got.Round, err)
		}
		// Restore the torn file layout for the next sub-case.
		if err := os.WriteFile(newest, b, 0o644); err != nil {
			t.Fatal(err)
		}
		st.Round = 2
	}

	// Both generations corrupt: an error, not silence and not a cold start.
	for _, p := range s.Generations() {
		if err := os.WriteFile(p, []byte("garbage"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := NewStore(base).Load(); err == nil || errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("all-corrupt store Load err = %v, want a decode error", err)
	}
}

func flipOneBit(b []byte, at int) []byte {
	out := append([]byte(nil), b...)
	out[at] ^= 0x01
	return out
}

func TestManagerCountersAndStatus(t *testing.T) {
	dir := t.TempDir()
	m := NewManager(filepath.Join(dir, "ckpt"), 30)

	// Cold restore: no files, no failure.
	st, err := m.Restore()
	if err != nil || st != nil {
		t.Fatalf("cold Restore = (%v, %v), want (nil, nil)", st, err)
	}
	if err := m.Save(sampleState(t)); err != nil {
		t.Fatal(err)
	}
	if st, err = m.Restore(); err != nil || st == nil {
		t.Fatalf("warm Restore = (%v, %v)", st, err)
	}
	status := m.Status()
	if !status.Enabled || status.Writes != 1 || status.Restores != 1 || status.Failures != 0 {
		t.Fatalf("status = %+v", status)
	}
	if status.BytesWritten <= 0 || status.LastSequence != 1 || status.IntervalS != 30 {
		t.Fatalf("status = %+v", status)
	}

	// A nil manager (checkpointing disabled) answers a zero status.
	var nilMgr *Manager
	if s := nilMgr.Status(); s.Enabled || s.Writes != 0 {
		t.Fatalf("nil manager status = %+v", s)
	}
}

// TestManagerSaveIfDue pins the one checkpoint step the daemon's round
// loop calls: nothing is captured before the interval elapses or with a
// zero interval, force always writes, a failed capture is counted like a
// failed write, and a nil manager never calls capture.
func TestManagerSaveIfDue(t *testing.T) {
	captures := 0
	capture := func() (*State, error) {
		captures++
		return sampleState(t), nil
	}

	var disabled *Manager
	if st, err := disabled.SaveIfDue(capture, true); st != nil || err != nil || captures != 0 {
		t.Fatalf("nil manager: st=%v err=%v captures=%d, want a no-op", st, err, captures)
	}

	m := NewManager(filepath.Join(t.TempDir(), "ckpt"), 3600)
	if st, err := m.SaveIfDue(capture, false); st != nil || err != nil || captures != 0 {
		t.Fatalf("before the interval: st=%v err=%v captures=%d, want not due", st, err, captures)
	}
	if st, err := m.SaveIfDue(capture, true); st == nil || err != nil || captures != 1 {
		t.Fatalf("forced: st=%v err=%v captures=%d, want one write", st, err, captures)
	}
	m.lastSave = m.lastSave.Add(-2 * time.Hour)
	if st, err := m.SaveIfDue(capture, false); st == nil || err != nil || captures != 2 {
		t.Fatalf("after the interval: st=%v err=%v captures=%d, want a write", st, err, captures)
	}
	if st, _ := m.SaveIfDue(capture, false); st != nil {
		t.Fatal("a successful write did not restart the interval")
	}

	finalOnly := NewManager(filepath.Join(t.TempDir(), "ckpt"), 0)
	finalOnly.lastSave = finalOnly.lastSave.Add(-time.Hour)
	if st, _ := finalOnly.SaveIfDue(capture, false); st != nil {
		t.Fatal("interval 0 wrote a periodic checkpoint; it means shutdown-only")
	}

	boom := errors.New("capture failed")
	st, err := m.SaveIfDue(func() (*State, error) { return nil, boom }, true)
	if st != nil || !errors.Is(err, boom) {
		t.Fatalf("failed capture: st=%v err=%v", st, err)
	}
	if s := m.Status(); s.Failures != 1 || s.Writes != 2 || s.LastError != boom.Error() {
		t.Fatalf("status after a failed capture = %+v, want 1 failure, 2 writes", s)
	}
}
