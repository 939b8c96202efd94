package engine

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vmtherm/internal/shard"
	"vmtherm/internal/telemetry"
)

// gateFleet is a population of hosts in slots, every reading at time 0.
func gateFleet(hosts int) ([]string, []Slot) {
	ids := make([]string, hosts)
	slots := make([]Slot, hosts)
	for i := range ids {
		ids[i] = fmt.Sprintf("g%02d-h%03d", i/64, i%64)
		slots[i] = Slot{Reading: telemetry.Reading{HostID: ids[i], TempC: 25 + float64(i%30)}, Present: true, Anchor: 40 + float64(i%40)}
	}
	return ids, slots
}

// stamp moves every slot's reading to the instant at.
func stamp(slots []Slot, at float64) {
	for i := range slots {
		slots[i].Reading.AtS = at
	}
}

// TestRoundTakesNoSessionLock: a round owns its sessions for the pass
// through the round gate and takes no session mutex, serial and sharded
// alike, so a session mutex held elsewhere does not hold the round up.
func TestRoundTakesNoSessionLock(t *testing.T) {
	const hosts = 1024
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			e := testEngine(t, func(c *Config) { c.RoundWorkers = workers })
			ids, slots := gateFleet(hosts)
			if e.roundSlots(0, ids, slots); predicted(slots) != hosts {
				t.Fatalf("first round: %d predictions, want %d", predicted(slots), hosts)
			}
			release := e.HoldSession(ids[hosts/2])
			if release == nil {
				t.Fatalf("no session for %s", ids[hosts/2])
			}
			stamp(slots, 15)
			done := make(chan int, 1)
			go func() {
				e.roundSlots(15, ids, slots)
				done <- predicted(slots)
			}()
			select {
			case n := <-done:
				release()
				if n != hosts {
					t.Fatalf("round: %d predictions, want %d", n, hosts)
				}
			case <-time.After(5 * time.Second):
				release()
				<-done
				t.Fatal("the round waited on a session mutex")
			}
		})
	}
}

// TestSnapshotIsRoundCut: a Snapshot taken while rounds run holds the
// round gate's read side, so it falls between two passes. Every round
// stamps every host with its own instant, so each capture must carry one
// LastAtS across all its sessions (run it under -race and -cpu 4, where the
// capture and the pass run side by side).
func TestSnapshotIsRoundCut(t *testing.T) {
	const hosts = 1024
	e := testEngine(t, nil)
	ids, slots := gateFleet(hosts)
	e.roundSlots(0, ids, slots)
	stop := make(chan struct{})
	var rounds atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for n := 1; ; n++ {
			select {
			case <-stop:
				return
			default:
			}
			now := 15 * float64(n)
			stamp(slots, now)
			e.roundSlots(now, ids, slots)
			rounds.Add(1)
		}
	}()
	defer wg.Wait()
	defer close(stop)
	for captures := 0; captures < 100 || rounds.Load() < 100; captures++ {
		st := e.Snapshot()
		if len(st.Sessions) != hosts {
			t.Fatalf("capture %d holds %d sessions, want %d", captures, len(st.Sessions), hosts)
		}
		at := st.Sessions[0].LastAtS
		for _, s := range st.Sessions {
			if s.LastAtS != at {
				t.Fatalf("capture %d holds %s at %v beside %s at %v: it cut a round in two",
					captures, s.ID, s.LastAtS, st.Sessions[0].ID, at)
			}
		}
	}
}

// TestPushCreationRacesShardedRound: a sharded round and pushes that pass
// an anchor lookup meet hosts for the first time together. The round's
// workers install sessions in their own slots and a push installs under the
// gate's write side after looking again, so every host ends with exactly one
// session, in its slot (under -race, a worker and a push writing one slot
// at once is a race).
func TestPushCreationRacesShardedRound(t *testing.T) {
	const hosts, waves, pushers = 2 * shard.MinHosts, 16, 4
	e := testEngine(t, func(c *Config) { c.RoundWorkers = 4 })
	ids, slots := gateFleet(hosts)
	readings := make([]telemetry.Reading, hosts)
	for i := range slots {
		slots[i].Present = false
		readings[i] = slots[i].Reading
		e.SlotOf(ids[i]) // the driver adds every slot; a push only fills one
	}
	warm := func(telemetry.Reading) (float64, bool) { return 60, true }
	for w := 0; w < waves; w++ {
		// Wave w is every waves-th host, so each of the round's chunks
		// meets some of its hosts first.
		now := 15 * float64(w)
		stamp(slots, now)
		var fresh []telemetry.Reading
		for i := w; i < hosts; i += waves {
			slots[i].Present = true
			readings[i].AtS = now
			fresh = append(fresh, readings[i])
		}
		// Every pusher walks the wave in the same order, one reading or
		// eight at a time, so pushes meet on a host; the round starts once
		// a push has landed, so it meets hosts both before and after them.
		began := make(chan struct{}, pushers)
		var wg sync.WaitGroup
		for p := 0; p < pushers; p++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var st StreamStats
				var pred Prediction
				for k := 0; k < len(fresh); k += 8 {
					if p%2 == 1 {
						e.ObserveBatch(fresh[k:min(k+8, len(fresh))], warm)
					} else {
						e.PredictFresh(fresh[k], warm, &st, &pred)
					}
					if k == 0 {
						began <- struct{}{}
					}
				}
			}()
		}
		<-began
		e.roundSlots(now, ids, slots)
		wg.Wait()
	}
	if n := e.Len(); n != hosts {
		t.Fatalf("Len() = %d, want %d", n, hosts)
	}
	snap := e.Snapshot()
	if len(snap.Sessions) != hosts {
		t.Fatalf("snapshot holds %d sessions, want %d", len(snap.Sessions), hosts)
	}
	for i := 1; i < len(snap.Sessions); i++ {
		if snap.Sessions[i].ID == snap.Sessions[i-1].ID {
			t.Fatalf("snapshot lists %s twice", snap.Sessions[i].ID)
		}
	}
	for i, id := range e.IDs() {
		if e.Slots()[i].sess == nil {
			t.Fatalf("host %s has no session in its slot", id)
		}
	}
}
