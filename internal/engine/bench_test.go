package engine

import (
	"fmt"
	"testing"

	"vmtherm/internal/telemetry"
)

// BenchmarkEngineRound measures one steady-state control round of the
// fleet's session engine at 1024 hosts: staleness accounting, calibration,
// re-anchor checks and Δ_gap-ahead prediction per host — the hot path under
// the fleet control plane. "slots" is RoundSlots, the round the fleet
// controller runs (cached session handles, no string hashed), "keyed" the
// map twin that stages maps into slots, runs the same body and compacts the
// predictions into a list; bench/e2e's engine.round.ns_per_host times the
// keyed one only. Both keep
// their anchors, so after 40 rounds every session is past t_break and Eq. (3)
// costs no logarithm. "slots_warmup" re-anchors a tenth of the hosts each
// round, as a replayed trace does, so every session stays in its warm-up and
// the round's readings, sharing one timestamp, hit the round's curve memo;
// "slots_distinct" does the same with a timestamp of its own for every host
// and round, so every memo lookup misses and pays for its logarithm. The
// engine's contract is zero allocations per round on all four (the B/op
// column must stay 0).
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
		run(b, func(round int, now float64) int {
			if now > 0 {
				for i := range slots {
					advance(&slots[i].Reading, round, now)
				}
			}
			eng.RoundSlots(now, ids, slots)
			return predicted(slots)
		})
	})
	// churn runs slot rounds that re-anchor hosts i ≡ round (mod 10), the
	// readings stamped now − offset(i, round).
	churn := func(b *testing.B, offset func(i, round int) float64) {
		eng := newEngine(b)
		slots := make([]Slot, hosts)
		for i := range slots {
			slots[i] = Slot{Reading: reading(i), Present: true, Anchor: anchor(i)}
		}
		run(b, func(round int, now float64) int {
			if now > 0 {
				for i := range slots {
					advance(&slots[i].Reading, round, now-offset(i, round))
					if i%10 == round%10 {
						slots[i].Anchor = 2*anchor(i) + 5 - slots[i].Anchor
					}
				}
			}
			eng.RoundSlots(now, ids, slots)
			return predicted(slots)
		})
	}
	b.Run("slots_warmup", func(b *testing.B) {
		churn(b, func(int, int) float64 { return 0 })
	})
	b.Run("slots_distinct", func(b *testing.B) {
		churn(b, func(i, round int) float64 { return float64((i*2654435761+round*40503)%4096) / 512 })
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

// BenchmarkPredictFresh measures the push path one reading at a time over
// 1,024 warm sessions: each op is one PredictFresh — a hold of the round
// gate's read side, a map lookup, the session lock, calibration and the
// Δ_gap-ahead prediction — on the next host in turn, its reading Δ_update
// later than its last so every one calibrates. Reports ns/reading; the
// contract is 0 B/op.
func BenchmarkPredictFresh(b *testing.B) {
	const hosts = 1024
	eng, err := New(DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	readings := make([]telemetry.Reading, hosts)
	for i := range readings {
		readings[i] = telemetry.Reading{HostID: fmt.Sprintf("r%02d-h%03d", i/64, i%64), TempC: 25 + float64(i%30)}
	}
	eng.ObserveBatch(readings, func(telemetry.Reading) (float64, bool) { return 60, true })
	if eng.Len() != hosts {
		b.Fatalf("warm-up built %d sessions, want %d", eng.Len(), hosts)
	}
	var st StreamStats
	var p Prediction
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := &readings[i%hosts]
		r.AtS += 15
		if !eng.PredictFresh(*r, nil, &st, &p) {
			b.Fatalf("PredictFresh deferred warm host %s", r.HostID)
		}
	}
	if b.N > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/reading")
	}
}
