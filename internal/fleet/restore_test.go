package fleet

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"vmtherm/internal/checkpoint"
	"vmtherm/internal/telemetry"
)

// restoreTarget builds the fresh source-driven controller a checkpoint is
// restored into: MaxHosts 8, the grid source.
func restoreTarget(t testing.TB) *Controller {
	t.Helper()
	cfg := DefaultConfig()
	cfg.MaxHosts = 8
	ctl, err := NewWithSource(cfg, &gridSource{}, syntheticStable)
	if err != nil {
		t.Fatal(err)
	}
	return ctl
}

// goodCheckpoint runs a five-host fleet for three rounds and cuts it.
func goodCheckpoint(t testing.TB) *checkpoint.State {
	t.Helper()
	ctl := restoreTarget(t)
	for round := 0; round < 3; round++ {
		for i := 0; i < 5; i++ {
			ingest(ctl, Reading{HostID: fmt.Sprintf("rs-%d", i), AtS: ctl.src.NowS(), TempC: 40 + float64(i), Util: 0.1 * float64(i)})
		}
		if _, err := ctl.RunRound(); err != nil {
			t.Fatal(err)
		}
	}
	st, err := ctl.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// restoreCases edit a good checkpoint's host order and newest readings the
// ways a damaged or hand-edited file could; ok marks the edits a restore
// must still accept.
var restoreCases = []struct {
	name string
	edit func(*checkpoint.State)
	ok   bool
}{
	{"untouched", func(*checkpoint.State) {}, true},
	{"duplicate host in the order", func(st *checkpoint.State) { st.Order[2] = st.Order[1] }, false},
	{"empty host id in the order", func(st *checkpoint.State) { st.Order[0] = "" }, false},
	{"order not ascending", func(st *checkpoint.State) { st.Order[0], st.Order[4] = st.Order[4], st.Order[0] }, false},
	{"more hosts than MaxHosts", func(st *checkpoint.State) {
		for i := 0; i < 4; i++ {
			st.Order = append(st.Order, fmt.Sprintf("zz-%d", i))
		}
	}, false},
	{"more readings than MaxHosts", func(st *checkpoint.State) {
		for i := 0; i < 4; i++ {
			st.Latest = append(st.Latest, telemetry.Reading{HostID: fmt.Sprintf("zz-%d", i), TempC: 40})
		}
	}, false},
	{"two readings for one host", func(st *checkpoint.State) { st.Latest[3].HostID = st.Latest[2].HostID }, false},
	{"reading without a host id", func(st *checkpoint.State) { st.Latest[0].HostID = "" }, false},
	{"readings not ascending", func(st *checkpoint.State) { st.Latest[1], st.Latest[2] = st.Latest[2], st.Latest[1] }, false},
	{"more sessions than MaxHosts", func(st *checkpoint.State) {
		for i := 0; i < 4; i++ {
			extra := st.Engine.Sessions[0]
			extra.ID = fmt.Sprintf("zz-%d", i)
			st.Engine.Sessions = append(st.Engine.Sessions, extra)
		}
	}, false},
	{"negative round", func(st *checkpoint.State) { st.Round = -1 }, false},
	// Today's tolerated shapes: the next round's drain re-sorts and
	// re-bounds the table.
	{"reading for a host the order lacks", func(st *checkpoint.State) { st.Order = st.Order[:4] }, true},
	{"host in the order without a reading", func(st *checkpoint.State) { st.Latest = st.Latest[1:] }, true},
	{"empty fleet", func(st *checkpoint.State) { st.Order, st.Latest, st.Engine.Sessions = nil, nil, nil }, true},
}

// restoreThenRound restores st into a fresh controller; when that succeeds
// the controller must run a clean round with a consistent table.
func restoreThenRound(t *testing.T, st *checkpoint.State) error {
	t.Helper()
	ctl := restoreTarget(t)
	if err := ctl.Restore(st); err != nil {
		return err
	}
	ingest(ctl, Reading{HostID: "rs-1", AtS: ctl.src.NowS(), TempC: 41, Util: 0.1})
	rep, err := ctl.RunRound()
	if err != nil {
		t.Fatalf("round after an accepted restore: %v", err)
	}
	checkTable(t, ctl)
	if rep.Hosts > ctl.cfg.MaxHosts || !slices.IsSorted(ctl.order) {
		t.Fatalf("table after an accepted restore: %d hosts (MaxHosts %d), order %v", rep.Hosts, ctl.cfg.MaxHosts, ctl.order)
	}
	return nil
}

// TestRestoreVetsHostState: Restore must refuse — with an error, never a
// panic or a corrupt host table — an order with a duplicate, empty or
// unsorted id, more hosts or readings than MaxHosts, and two readings for
// one host; a reading whose host the order lacks is still kept.
func TestRestoreVetsHostState(t *testing.T) {
	for _, tc := range restoreCases {
		t.Run(tc.name, func(t *testing.T) {
			st := goodCheckpoint(t)
			tc.edit(st)
			err := restoreThenRound(t, st)
			if tc.ok && err != nil {
				t.Fatalf("restore refused: %v", err)
			}
			if !tc.ok && err == nil {
				t.Fatal("restore accepted the state")
			}
		})
	}
}

// FuzzRestore feeds decoded checkpoint files to Restore: whatever decodes
// must either be refused with an error or leave a controller that runs a
// clean round — never a panic. Seeded with every restoreCases state, encoded.
func FuzzRestore(f *testing.F) {
	for i, tc := range restoreCases {
		st := goodCheckpoint(f)
		tc.edit(st)
		var buf bytes.Buffer
		if _, err := checkpoint.Encode(&buf, uint64(i+1), st); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		st, _, err := checkpoint.Decode(bytes.NewReader(data))
		if err != nil {
			return
		}
		_ = restoreThenRound(t, st) // a refusal is an acceptable outcome
	})
}
