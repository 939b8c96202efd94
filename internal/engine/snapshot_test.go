package engine

import (
	"math"
	"testing"
)

// buildWarmEngine creates an engine with a few sessions that have observed
// telemetry (non-trivial γ, staleness clocks, update gating state).
func buildWarmEngine(t *testing.T) *Engine {
	t.Helper()
	e, err := New(Config{UpdateEveryS: 15, GapS: 60})
	if err != nil {
		t.Fatal(err)
	}
	hosts := []struct {
		id           string
		phi0, stable float64
		obs          []float64 // temperatures observed at 15s intervals
		anchorAt     float64
	}{
		{"r0-h0", 35, 72, []float64{40, 48, 55, 61}, 0},
		{"r0-h1", 33, 55, []float64{34, 36, 39}, 30},
		{"r1-h0", 40, 80, []float64{45, 52}, 15},
	}
	for _, h := range hosts {
		if e.adopt(h.id, h.phi0, h.stable, h.anchorAt) == nil {
			t.Fatalf("%s: valid anchors refused", h.id)
		}
		for i, temp := range h.obs {
			if _, err := e.observe(h.id, h.anchorAt+float64(i+1)*15, temp); err != nil {
				t.Fatal(err)
			}
		}
	}
	return e
}

// TestSnapshotRestoreRoundTrip: a restored engine must predict and calibrate
// bit-identically to the original from the capture point on.
func TestSnapshotRestoreRoundTrip(t *testing.T) {
	orig := buildWarmEngine(t)
	st := orig.Snapshot()
	if len(st.Sessions) != 3 {
		t.Fatalf("snapshot carries %d sessions, want 3", len(st.Sessions))
	}
	for i := 1; i < len(st.Sessions); i++ {
		if st.Sessions[i].ID <= st.Sessions[i-1].ID {
			t.Fatalf("snapshot sessions not sorted: %q after %q", st.Sessions[i].ID, st.Sessions[i-1].ID)
		}
	}

	restored, err := New(Config{UpdateEveryS: 15, GapS: 60})
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.Restore(st); err != nil {
		t.Fatal(err)
	}
	if restored.Len() != orig.Len() {
		t.Fatalf("restored %d sessions, want %d", restored.Len(), orig.Len())
	}

	// Identical future: observe and predict on both, compare exact bits.
	for _, id := range []string{"r0-h0", "r0-h1", "r1-h0"} {
		for _, step := range []struct{ at, temp float64 }{
			{75, 63.5}, {80, 64.0}, {90, 64.8}, // 80 lands inside the Δ_update gate
		} {
			g1, err1 := orig.observe(id, step.at, step.temp)
			g2, err2 := restored.observe(id, step.at, step.temp)
			if err1 != nil || err2 != nil {
				t.Fatalf("observe %s: %v / %v", id, err1, err2)
			}
			if g1 != g2 {
				t.Fatalf("%s: γ diverged after restore: %v vs %v", id, g1, g2)
			}
			p1, _, _ := orig.predict(id, step.at)
			p2, _, _ := restored.predict(id, step.at)
			if p1 != p2 {
				t.Fatalf("%s: prediction diverged after restore: %v vs %v", id, p1, p2)
			}
		}
		s1, _ := orig.Stable(id)
		s2, _ := restored.Stable(id)
		if s1 != s2 {
			t.Fatalf("%s: ψ_stable diverged: %v vs %v", id, s1, s2)
		}
	}
}

// TestRestoreReplacesPopulation: restore over a non-empty engine must not
// leak pre-existing sessions.
func TestRestoreReplacesPopulation(t *testing.T) {
	st := buildWarmEngine(t).Snapshot()
	e, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if e.adopt("stray", 30, 50, 0) == nil {
		t.Fatal("valid anchors refused")
	}
	if err := e.Restore(st); err != nil {
		t.Fatal(err)
	}
	if e.Len() != len(st.Sessions) {
		t.Fatalf("restored population %d, want %d", e.Len(), len(st.Sessions))
	}
	if _, _, err := e.predict("stray", 0); err == nil {
		t.Fatal("pre-restore session survived Restore")
	}
}

// TestRestoreRejectsBadState: invalid states error and leave the engine
// empty, never half-restored or panicking.
func TestRestoreRejectsBadState(t *testing.T) {
	good := buildWarmEngine(t).Snapshot()

	cases := map[string]func(State) State{
		"empty id": func(s State) State {
			s.Sessions[0].ID = ""
			return s
		},
		"duplicate id": func(s State) State {
			s.Sessions[1].ID = s.Sessions[0].ID
			return s
		},
		"bad lambda": func(s State) State {
			s.Sessions[0].Predictor.Config.Lambda = 2
			return s
		},
		"bad curve": func(s State) State {
			s.Sessions[0].Predictor.Curve.TBreakS = math.NaN()
			return s
		},
		"negative updates": func(s State) State {
			s.Sessions[0].Predictor.Updates = -1
			return s
		},
	}
	for name, mutate := range cases {
		e, err := New(Config{})
		if err != nil {
			t.Fatal(err)
		}
		// Deep-enough copy: sessions slice is the only shared mutable part.
		cp := good
		cp.Sessions = append([]SessionState(nil), good.Sessions...)
		if err := e.Restore(mutate(cp)); err == nil {
			t.Errorf("%s: Restore accepted invalid state", name)
		}
	}
}
