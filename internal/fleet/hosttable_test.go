package fleet

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"vmtherm/internal/workload"
)

// The white-box tests were written against per-host maps; these helpers are
// their view of the host table.

// seedReading writes r into its host's slot, adding the host at the table's
// tail when it is not tracked yet.
func seedReading(c *Controller, r Reading) {
	i := c.slotOf(r.HostID)
	c.slots[i].Reading, c.slots[i].Present = r, true
}

// tableReadings returns the newest reading of every host that has one.
func tableReadings(c *Controller) map[string]Reading {
	out := make(map[string]Reading)
	for i, id := range c.order {
		if c.slots[i].Present {
			out[id] = c.slots[i].Reading
		}
	}
	return out
}

// checkTable fails the test unless the table's slices are in step and pos is
// the inverse of order.
func checkTable(t *testing.T, c *Controller) {
	t.Helper()
	if len(c.pos) != len(c.order) || len(c.slots) != len(c.order) || len(c.seen) != len(c.order) {
		t.Fatalf("table out of step: %d ids, %d index entries, %d slots, %d stamps",
			len(c.order), len(c.pos), len(c.slots), len(c.seen))
	}
	for i, id := range c.order {
		if c.pos[id] != int32(i) {
			t.Fatalf("pos[%q] = %d, want %d (order %v)", id, c.pos[id], i, c.order)
		}
	}
}

// anchorsOf runs the anchor pass and returns the anchors it resolved, by
// host id.
func anchorsOf(c *Controller) (anchors map[string]float64, hits, misses int, err error) {
	if hits, misses, err = c.anchors(); err != nil {
		return nil, 0, 0, err
	}
	anchors = make(map[string]float64)
	for i, id := range c.order {
		if a := c.slots[i].Anchor; !math.IsNaN(a) {
			anchors[id] = a
		}
	}
	return anchors, hits, misses, nil
}

// mapModel is the reference the host table replaced: newest reading per host
// in a map, the order rebuilt from its keys — the parent's drainInto +
// refreshDiscoveredHosts (+ the simulated fleet's foreign-host sweep and the
// engine round's eviction of dark hosts), kept as small as it was.
type mapModel struct {
	own        map[string]bool // a simulated fleet's hosts; nil when source-driven
	maxHosts   int
	latest     map[string]Reading
	order      []string
	dirty      bool
	superseded int64
}

// round drains readings and then forgets hosts dark beyond evictAfterS, as
// one controller round does; it returns the drained and discarded counts.
func (m *mapModel) round(readings []Reading, now, evictAfterS float64) (drained, discarded int) {
	seen := map[string]bool{}
	for _, r := range readings {
		drained++
		cur, known := m.latest[r.HostID]
		if known && r.AtS < cur.AtS {
			m.superseded++
			continue
		}
		if !known {
			m.dirty = true
		}
		if seen[r.HostID] {
			m.superseded++
		}
		seen[r.HostID] = true
		m.latest[r.HostID] = r
	}
	if m.own != nil {
		maps.DeleteFunc(m.latest, func(id string, _ Reading) bool { return !m.own[id] })
	} else if m.dirty || len(m.latest) != len(m.order) {
		m.order = slices.Sorted(maps.Keys(m.latest))
		for len(m.order) > m.maxHosts {
			delete(m.latest, m.order[len(m.order)-1])
			m.order = m.order[:len(m.order)-1]
			discarded++
		}
		m.dirty = false
	}
	for id, r := range m.latest {
		if now-min(r.AtS, now) > evictAfterS {
			delete(m.latest, id)
			m.dirty = true
		}
	}
	return drained, discarded
}

// TestHostTableMatchesMapModel drives random rounds — readings for known
// hosts, new hosts past the MaxHosts bound, duplicates and out-of-order
// timestamps inside one drain, foreign ids on a simulated fleet, hosts going
// dark until they are evicted, checkpoint → restore — through the controller
// and through mapModel, and after every round compares the host order, the
// newest reading per host, the drained / superseded / discarded counts, and
// the published snapshot's membership.
func TestHostTableMatchesMapModel(t *testing.T) {
	type fixture struct {
		ctl   *Controller
		clock *gridSource // nil on the simulated fleet: it keeps its own clock
		ids   []string    // the id pool readings are drawn from
	}
	sourceCfg := func() Config {
		cfg := DefaultConfig()
		cfg.MaxHosts = 8
		return cfg
	}
	newSource := func(t *testing.T) fixture {
		clock := &gridSource{}
		ctl, err := NewWithSource(sourceCfg(), clock, syntheticStable)
		if err != nil {
			t.Fatal(err)
		}
		f := fixture{ctl: ctl, clock: clock}
		for i := 0; i < 14; i++ { // more ids than MaxHosts admits
			f.ids = append(f.ids, fmt.Sprintf("pm-%02d", (i*5)%14))
		}
		return f
	}
	newSim := func(t *testing.T) fixture {
		cfg := testConfig()
		cfg.Racks, cfg.HostsPerRack = 2, 4
		ctl, err := New(cfg, syntheticStable)
		if err != nil {
			t.Fatal(err)
		}
		return fixture{ctl: ctl, ids: append(ctl.Hosts(), "foreign-a", "foreign-b", "")}
	}

	for _, tc := range []struct {
		name string
		make func(*testing.T) fixture
	}{{"source", newSource}, {"sim", newSim}} {
		for _, seed := range []int64{1, 2, 3} {
			t.Run(fmt.Sprintf("%s/seed%d", tc.name, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				f := tc.make(t)
				cfg := f.ctl.Config()
				m := &mapModel{maxHosts: cfg.MaxHosts, latest: map[string]Reading{}}
				if f.clock == nil {
					m.own = map[string]bool{}
					for _, id := range f.ctl.Hosts() {
						m.own[id] = true
					}
					m.order = f.ctl.Hosts()
				}
				var offered []Reading
				var discards, evictions, restores int
				tee := func(r Reading) bool { offered = append(offered, r); return true }
				f.ctl.TeeTelemetry(tee)
				now := 0.0

				// The simulated fleet's clock moves a round at a time, so its
				// long outage is a blackout of rounds past evictAfterS during
				// which only foreign ids are pushed.
				outage := int(evictAfterS/cfg.UpdateEveryS) + 1
				for round := 1; round <= 120; round++ {
					offered = offered[:0]
					dark := f.clock == nil && round > 30 && round <= 30+outage
					if f.clock == nil {
						if err := setTelemetryDark(f.ctl, dark); err != nil {
							t.Fatal(err)
						}
					}
					switch {
					case f.clock != nil && rng.Intn(12) == 0:
						// A long outage: whoever is not fed this round goes dark.
						f.clock.now += evictAfterS
						now = f.clock.now
					case f.clock != nil && rng.Intn(10) == 0:
						st, err := f.ctl.Checkpoint()
						if err != nil {
							t.Fatal(err)
						}
						restored := &gridSource{}
						ctl, err := NewWithSource(sourceCfg(), restored, syntheticStable)
						if err != nil {
							t.Fatal(err)
						}
						if err := ctl.Restore(st); err != nil {
							t.Fatalf("round %d: restore: %v", round, err)
						}
						f.ctl, f.clock = ctl, restored
						f.ctl.TeeTelemetry(tee)
						restores++
					case f.clock == nil && rng.Intn(4) == 0:
						id := f.ctl.Hosts()[rng.Intn(len(m.own))]
						if err := setTelemetryMuted(f.ctl, id, rng.Intn(2) == 0); err != nil {
							t.Fatal(err)
						}
					case f.clock != nil && rng.Intn(3) == 0:
						// A sweep in table order, as sources emit: the drain's
						// slot hint takes each reading, and a skipped host sends
						// the next one through pos.
						for _, id := range f.ctl.Hosts() {
							if rng.Intn(4) > 0 {
								ingest(f.ctl, Reading{HostID: id, AtS: now + float64(rng.Intn(40)-25), TempC: 30 + 40*rng.Float64(), Util: rng.Float64()})
							}
						}
					}
					for n := rng.Intn(24); n > 0; n-- {
						id := f.ids[rng.Intn(len(f.ids))]
						if dark && m.own[id] {
							continue
						}
						ingest(f.ctl, Reading{
							HostID: id,
							AtS:    now + float64(rng.Intn(40)-25), // behind, at and ahead of the clock
							TempC:  30 + 40*rng.Float64(),
							Util:   rng.Float64(),
						})
					}

					rep, err := f.ctl.RunRound()
					if err != nil {
						t.Fatal(err)
					}
					now = rep.SimTimeS
					drained, discarded := m.round(offered, now, evictAfterS)
					discards += discarded
					evictions += rep.Evicted

					if rep.TelemetryDrained != drained || rep.DiscardedHosts != discarded || rep.SupersededTotal != m.superseded {
						t.Fatalf("round %d: drained %d discarded %d superseded %d, model %d / %d / %d",
							round, rep.TelemetryDrained, rep.DiscardedHosts, rep.SupersededTotal, drained, discarded, m.superseded)
					}
					if got := f.ctl.Hosts(); !slices.Equal(got, m.order) {
						t.Fatalf("round %d: order %v, model %v", round, got, m.order)
					}
					if got := tableReadings(f.ctl); !maps.Equal(got, m.latest) {
						t.Fatalf("round %d: readings %v, model %v", round, got, m.latest)
					}
					c := f.ctl
					checkTable(t, c)
					var fresh, stale []string
					for id, r := range m.latest {
						if now-min(r.AtS, now) > staleAfterS {
							stale = append(stale, id)
						} else {
							fresh = append(fresh, id)
						}
					}
					slices.Sort(fresh)
					slices.Sort(stale)
					c.ViewSnapshot(func(s *Snapshot) {
						if !maps.Equal(s.Latest, m.latest) {
							t.Fatalf("round %d: published readings %v, model %v", round, s.Latest, m.latest)
						}
						if got := slices.Sorted(maps.Keys(s.Predicted)); !slices.Equal(got, fresh) {
							t.Fatalf("round %d: predicted hosts %v, model %v", round, got, fresh)
						}
						if !slices.Equal(s.StaleHosts, stale) && len(s.StaleHosts)+len(stale) > 0 {
							t.Fatalf("round %d: stale hosts %v, model %v", round, s.StaleHosts, stale)
						}
					})
				}
				if m.superseded == 0 || evictions == 0 || (f.clock != nil && (discards == 0 || restores == 0)) {
					t.Fatalf("scenario too tame: %d superseded, %d evictions, %d discarded, %d restores",
						m.superseded, evictions, discards, restores)
				}
			})
		}
	}
}

// TestFutureStampedReadingIsClamped: one reading stamped far ahead of the
// source clock used to keep its stamp in the host table, so every genuine
// reading after it counted as superseded, the host never went stale, and the
// round predicted from the poisoned temperature for as long as it ran. The
// drain stores it at the round's clock instead: the next genuine reading
// replaces it, and a host that falls silent goes stale on schedule.
func TestFutureStampedReadingIsClamped(t *testing.T) {
	clock := &gridSource{}
	cfg := DefaultConfig()
	c, err := NewWithSource(cfg, clock, syntheticStable)
	if err != nil {
		t.Fatal(err)
	}
	ingest(c, Reading{HostID: "h", AtS: 1e12, TempC: 99, Util: 0.5})
	if _, err := c.RunRound(); err != nil {
		t.Fatal(err)
	}
	if got := snapshotOf(c).Latest["h"]; got.AtS != clock.now {
		t.Fatalf("future-stamped reading stored at %v, want the round's clock %v", got.AtS, clock.now)
	}
	for round := 0; round < 6; round++ {
		ingest(c, Reading{HostID: "h", AtS: clock.now, TempC: 40, Util: 0.5})
		if _, err := c.RunRound(); err != nil {
			t.Fatal(err)
		}
	}
	snap := snapshotOf(c)
	if _, _, superseded := c.IngestStats(); superseded != 0 {
		t.Fatalf("%d genuine readings superseded by the future-stamped one", superseded)
	}
	if got := snap.Latest["h"]; got.TempC != 40 || got.AtS != clock.now-cfg.UpdateEveryS {
		t.Fatalf("latest reading %+v, want the last genuine one (40 °C at %v)", got, clock.now-cfg.UpdateEveryS)
	}
	if p := snap.Predicted["h"]; p > 60 {
		t.Fatalf("predicted %.1f °C after six 40 °C readings: still from the 99 °C one", p)
	}
	// Silent from here on: the host goes stale once staleAfterS has passed.
	silentAt := clock.now - cfg.UpdateEveryS
	for len(snapshotOf(c).StaleHosts) == 0 {
		if clock.now-silentAt > staleAfterS+cfg.UpdateEveryS {
			t.Fatalf("host still fresh %v s after its last reading (staleAfterS %v)", clock.now-silentAt, staleAfterS)
		}
		if _, err := c.RunRound(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestIngestPipelineCeiling is the -race proof for the swap buffer: while
// producers push and rounds drain, no more than the buffer's capacity of
// readings ever wait, every offered reading is counted exactly once —
// received, dropped or rejected — and every received one is drained by
// exactly one round.
func TestIngestPipelineCeiling(t *testing.T) {
	const capacity = 64
	cfg := DefaultConfig()
	cfg.MaxHosts = 16
	c, err := NewWithSource(cfg, &gridSource{}, syntheticStable)
	if err != nil {
		t.Fatal(err)
	}
	withIngestBuffer(c, capacity)
	buffered := func() int {
		c.ingest.mu.Lock()
		defer c.ingest.mu.Unlock()
		return len(c.ingest.buf)
	}
	const producers, perProducer = 4, 3000
	var offered atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < producers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				temp := 40 + float64(i%20)
				if i%50 == 0 {
					temp = math.NaN() // rejected at the door
				}
				ingest(c, Reading{HostID: fmt.Sprintf("h%02d", (g*7+i)%cfg.MaxHosts), AtS: float64(i), TempC: temp, Util: 0.5})
				offered.Add(1)
				if n := buffered(); n > capacity {
					t.Errorf("%d readings buffered, capacity is %d", n, capacity)
					return
				}
			}
		}(g)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()

	drained, rounds := 0, 0
	round := func() {
		rep, err := c.RunRound()
		if err != nil {
			t.Fatal(err)
		}
		drained += rep.TelemetryDrained
		rounds++
	}
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
			round()
			runtime.Gosched()
		}
	}
	round() // whatever the producers left behind
	if n := buffered(); n != 0 {
		t.Fatalf("%d readings still buffered after the last round", n)
	}
	received, dropped, _ := c.IngestStats()
	_, rejected := c.IngestRejected()
	if received+dropped+rejected != offered.Load() {
		t.Fatalf("%d received + %d dropped + %d rejected, %d offered", received, dropped, rejected, offered.Load())
	}
	if int64(drained) != received {
		t.Fatalf("rounds drained %d readings, the pipeline received %d", drained, received)
	}
	if received == 0 || dropped == 0 || rejected == 0 || rounds < 2 {
		t.Fatalf("scenario too tame: %d received, %d dropped, %d rejected over %d rounds", received, dropped, rejected, rounds)
	}
}

// TestSlotHandlesFollowEngineUnderRace is the -race guard for the cached
// session handles: rounds run while the streaming path creates sessions
// inline (source-driven fleet) and while placement and VM removal delete
// them (simulated fleet), and after every round each slot's handle must
// still be the session the engine has registered under the host's id.
func TestSlotHandlesFollowEngineUnderRace(t *testing.T) {
	checkHandles := func(t *testing.T, c *Controller, round int) {
		t.Helper()
		c.mu.Lock()
		defer c.mu.Unlock()
		for i, id := range c.order {
			if !c.eng.HandleCurrent(id, c.slots[i].Handle) {
				t.Fatalf("round %d: host %s serves a session the engine no longer registers", round, id)
			}
		}
	}
	// run keeps rounds going beside the workers for at least 25 rounds and
	// until proved reports the interference the case is about has happened;
	// work is told how many rounds have completed.
	run := func(t *testing.T, c *Controller, workers int, work func(w, iter, round int), proved func() bool) {
		stop := make(chan struct{})
		var wg sync.WaitGroup
		var iters, rounds atomic.Int64
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for iter := 0; ; iter++ {
					select {
					case <-stop:
						return
					default:
						work(w, iter, int(rounds.Load()))
						iters.Add(1)
					}
				}
			}(w)
		}
		defer func() {
			close(stop)
			wg.Wait()
		}()
		for round := 1; round <= 25 || !proved(); round++ {
			if round > 20000 {
				t.Fatal("the workers never interfered with a round; the test proved nothing")
			}
			if _, err := c.RunRound(); err != nil {
				t.Fatal(err)
			}
			checkHandles(t, c, round)
			rounds.Store(int64(round))
			// Rounds hold the controller lock back to back; let every worker
			// get a turn between two of them as well as during one.
			for seen := iters.Load(); iters.Load() < seen+int64(workers); {
				runtime.Gosched()
			}
		}
	}

	t.Run("streaming creates", func(t *testing.T) {
		c, err := NewWithSource(streamGridConfig(), &gridSource{}, syntheticStable)
		if err != nil {
			t.Fatal(err)
		}
		run(t, c, 4, func(w, iter, round int) {
			// Each worker brings one new host per round — once the anchor
			// cache is warm the push creates its session before any round
			// has met it — beside the hosts of the rounds before.
			readings := make([]Reading, 4)
			for j := range readings {
				readings[j] = Reading{
					HostID: fmt.Sprintf("st-%d-%03d", w, max(0, round-j)),
					AtS:    float64(iter),
					TempC:  35 + float64((w+iter)%30),
					Util:   0.5,
				}
			}
			c.IngestBatch(readings, false, make([]IngestResult, len(readings)))
		}, func() bool {
			_, created, _, _ := c.StreamTotals()
			return created > 0
		})
	})

	t.Run("placement deletes", func(t *testing.T) {
		c, err := New(testConfig(), syntheticStable)
		if err != nil {
			t.Fatal(err)
		}
		var removed atomic.Int64
		run(t, c, 3, func(w, iter, _ int) {
			id := fmt.Sprintf("race-%d-%d", w, iter)
			decs, err := c.PlaceBatch([]workload.VMSpec{HeavyVMSpec(id, 1, 2)})
			if err != nil {
				t.Errorf("PlaceBatch: %v", err)
				return
			}
			if decs[0].Status == Placed {
				if err := c.RemoveVM(id); err != nil {
					t.Errorf("RemoveVM: %v", err)
				}
				removed.Add(1)
			}
		}, func() bool { return removed.Load() > 0 })

		// Quiet now: one more deletion, one more round, and every published
		// prediction must come from a session the engine has registered — a
		// stale handle would have kept predicting from the deleted one.
		decs, err := c.PlaceBatch([]workload.VMSpec{HeavyVMSpec("race-last", 1, 2)})
		if err != nil || decs[0].Status != Placed {
			t.Fatalf("final placement: %+v, %v", decs, err)
		}
		if _, err := c.RunRound(); err != nil {
			t.Fatal(err)
		}
		c.ViewSnapshot(func(s *Snapshot) {
			for id := range s.Predicted {
				if _, err := c.eng.Stable(id); err != nil {
					t.Errorf("host %s was predicted from a session the engine does not hold: %v", id, err)
				}
			}
			if len(s.Predicted) != c.eng.Len() {
				t.Errorf("%d predictions from %d sessions", len(s.Predicted), c.eng.Len())
			}
		})
	})
}
