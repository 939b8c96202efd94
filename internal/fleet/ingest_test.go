package fleet

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"testing"

	"vmtherm/internal/telemetry"
)

// burstSource emits a seeded burst per Advance: readings for a small host
// pool, some of them duplicates or stamped out of order, some implausible,
// n of them in all. during, when set, runs after every emission.
type burstSource struct {
	now    float64
	rng    *rand.Rand
	n      func() int
	during func()
}

func (s *burstSource) Name() string  { return "burst" }
func (s *burstSource) NowS() float64 { return s.now }
func (s *burstSource) Advance(dtS float64, emit func(telemetry.Reading) bool) error {
	for i, n := 0, s.n(); i < n; i++ {
		temp := 30 + 50*s.rng.Float64()
		switch s.rng.Intn(40) {
		case 0:
			temp = math.NaN()
		case 1:
			temp = 1e6
		}
		emit(Reading{
			HostID: fmt.Sprintf("b%03d", s.rng.Intn(200)),
			AtS:    s.now + dtS*s.rng.Float64(),
			TempC:  temp,
			Util:   s.rng.Float64(),
		})
		if s.during != nil {
			s.during()
		}
	}
	s.now += dtS
	return nil
}

// TestChunkedSourcePushMatchesPerReading drives two source-driven
// controllers through the same bursts — some well under a chunk, some over
// the buffer — one staging and pushing its source's readings a chunk at a
// time, the other pushing each reading under its own lock as the source
// path did before chunking. After every round the drained host table and
// the received / dropped / superseded / rejected counters must agree, and
// the tee must have seen the same readings in the same order.
func TestChunkedSourcePushMatchesPerReading(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxHosts = 256
	sizes := []int{0, 7, pushChunk - 1, pushChunk, pushChunk + 1, 1300, 2*pushChunk + 3, 4000}
	build := func() (*Controller, *telemetry.Recorder) {
		rng := rand.New(rand.NewSource(31))
		round := 0
		src := &burstSource{rng: rng, n: func() int { round++; return sizes[round%len(sizes)] }}
		c, err := NewWithSource(cfg, src, syntheticStable)
		if err != nil {
			t.Fatal(err)
		}
		withIngestBuffer(c, 1500)
		rec := &telemetry.Recorder{}
		c.TeeTelemetry(rec.Emit)
		return c, rec
	}
	chunked, chunkedTee := build()
	perReading, perReadingTee := build()
	perReading.stage = func(r Reading) bool { return ingest(perReading, r) }

	for round := 0; round < 3*len(sizes); round++ {
		a, err := chunked.RunRound()
		if err != nil {
			t.Fatal(err)
		}
		b, err := perReading.RunRound()
		if err != nil {
			t.Fatal(err)
		}
		if a.TelemetryDrained != b.TelemetryDrained {
			t.Fatalf("round %d: drained %d, per-reading %d", round, a.TelemetryDrained, b.TelemetryDrained)
		}
		if !slices.Equal(chunked.order, perReading.order) || !maps.Equal(tableReadings(chunked), tableReadings(perReading)) {
			t.Fatalf("round %d: host tables differ", round)
		}
		var sa, sb [3]int64
		sa[0], sa[1], sa[2] = chunked.IngestStats()
		sb[0], sb[1], sb[2] = perReading.IngestStats()
		ra, _ := chunked.IngestRejected()
		rb, _ := perReading.IngestRejected()
		if sa != sb || ra != rb {
			t.Fatalf("round %d: received/dropped/superseded %v rejected %v; per-reading %v %v", round, sa, ra, sb, rb)
		}
		if !slices.EqualFunc(chunkedTee.Readings, perReadingTee.Readings, sameReading) {
			t.Fatalf("round %d: the tee saw %d readings, per-reading %d, or a different order",
				round, len(chunkedTee.Readings), len(perReadingTee.Readings))
		}
	}
	received, dropped, superseded := chunked.IngestStats()
	_, rejected := chunked.IngestRejected()
	if received == 0 || dropped == 0 || superseded == 0 || rejected == 0 {
		t.Fatalf("scenario too tame: %d received, %d dropped, %d superseded, %d rejected", received, dropped, superseded, rejected)
	}
}

// sameReading compares readings bit for bit (a NaN temperature equals
// itself).
func sameReading(a, b Reading) bool {
	return a.HostID == b.HostID && a.AtS == b.AtS && a.Util == b.Util && a.MemFrac == b.MemFrac &&
		math.Float64bits(a.TempC) == math.Float64bits(b.TempC)
}

// TestChunkedPushMemoryBound: a source that emits several buffers' worth of
// readings in one Advance never has more than the buffer's capacity +
// pushChunk of them in the pipeline — the buffer plus one staged chunk.
func TestChunkedPushMemoryBound(t *testing.T) {
	const capacity = 1000
	cfg := DefaultConfig()
	cfg.MaxHosts = 256
	src := &burstSource{rng: rand.New(rand.NewSource(7)), n: func() int { return 5000 }}
	c, err := NewWithSource(cfg, src, syntheticStable)
	if err != nil {
		t.Fatal(err)
	}
	withIngestBuffer(c, capacity)
	peak := 0
	src.during = func() {
		c.ingest.mu.Lock()
		n := len(c.ingest.buf) + len(c.staged)
		c.ingest.mu.Unlock()
		peak = max(peak, n)
	}
	for round := 0; round < 3; round++ {
		if _, err := c.RunRound(); err != nil {
			t.Fatal(err)
		}
	}
	if peak > capacity+pushChunk {
		t.Fatalf("%d readings held in the pipeline, bound %d + %d", peak, capacity, pushChunk)
	}
	if peak < capacity {
		t.Fatalf("peak %d never filled the buffer of %d", peak, capacity)
	}
	if _, dropped, _ := c.IngestStats(); dropped == 0 {
		t.Fatal("no drops from bursts of five buffers")
	}
}
