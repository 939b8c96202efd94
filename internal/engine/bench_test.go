package engine

import (
	"fmt"
	"testing"

	"vmtherm/internal/telemetry"
)

// BenchmarkEngineRound measures one steady-state control round of the
// unified session engine at 1024 hosts: staleness accounting, calibration,
// re-anchor checks and Δ_gap-ahead prediction per host — the hot path under
// both the fleet control plane and the prediction service. "slots" is the
// slot-indexed front-end the fleet controller runs (cached session handles,
// no string hashed), "keyed" the map front-end over the same per-host body;
// bench/e2e's engine.round.ns_per_host times the keyed one only. The
// engine's contract is zero allocations per round on both (the B/op column
// must stay 0).
func BenchmarkEngineRound(b *testing.B) {
	const hosts = 1024
	ids := make([]string, hosts)
	for i := range ids {
		ids[i] = fmt.Sprintf("r%02d-h%03d", i/64, i%64)
	}
	reading := func(i int) telemetry.Reading {
		return telemetry.Reading{HostID: ids[i], AtS: 0, TempC: 25 + float64(i%30)}
	}
	anchor := func(i int) float64 { return 40 + float64(i%40) }
	// advance moves host's reading to the round at now, as a drain would.
	advance := func(r *telemetry.Reading, round int, now float64) {
		r.AtS = now
		r.TempC = 25 + float64((round+int(r.TempC))%30)
	}
	run := func(b *testing.B, round func(round int, now float64) int) {
		// Build every session before timing: steady state, not cold start.
		round(0, 0)
		now := 0.0
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			now += 15
			if n := round(i, now); n != hosts {
				b.Fatalf("round produced %d predictions, want %d", n, hosts)
			}
		}
		if d := b.Elapsed().Seconds(); d > 0 {
			b.ReportMetric(float64(hosts*b.N)/d, "hosts/s")
		}
	}
	newEngine := func(b *testing.B) *Engine {
		eng, err := New(DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		return eng
	}

	b.Run("slots", func(b *testing.B) {
		eng := newEngine(b)
		slots := make([]Slot, hosts)
		for i := range slots {
			slots[i] = Slot{Reading: reading(i), Present: true, Anchor: anchor(i)}
		}
		var dst []Prediction
		run(b, func(round int, now float64) int {
			if now > 0 {
				for i := range slots {
					advance(&slots[i].Reading, round, now)
				}
			}
			dst, _ = eng.RoundSlots(dst[:0], now, ids, slots)
			return len(dst)
		})
	})
	b.Run("keyed", func(b *testing.B) {
		eng := newEngine(b)
		latest := make(map[string]telemetry.Reading, hosts)
		anchors := make(map[string]float64, hosts)
		for i, id := range ids {
			latest[id], anchors[id] = reading(i), anchor(i)
		}
		var dst []Prediction
		run(b, func(round int, now float64) int {
			if now > 0 {
				for _, id := range ids {
					r := latest[id]
					advance(&r, round, now)
					latest[id] = r
				}
			}
			dst, _ = eng.Round(dst[:0], now, ids, latest, anchors)
			return len(dst)
		})
	})
}
