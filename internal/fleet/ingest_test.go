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

// sweepSource emits one reading per entry of sweep per Advance, in that
// order, stamped at the clock the Advance ends on.
type sweepSource struct {
	now   float64
	sweep []Reading
}

func (s *sweepSource) Name() string  { return "sweep" }
func (s *sweepSource) NowS() float64 { return s.now }
func (s *sweepSource) Advance(dtS float64, emit func(telemetry.Reading) bool) error {
	s.now += dtS
	for i := range s.sweep {
		s.sweep[i].AtS = s.now
		emit(s.sweep[i])
	}
	return nil
}

// TestSourceAdmissionMatchesPipeline drives two source-driven controllers
// through the same bursts — some well under the buffer, some over it — one
// admitting its source's readings straight into the host table, the other
// pushing each through the ingest pipeline and draining them after the
// advance, as the source path did before. After every round the host table
// and the received / dropped / superseded / rejected counters must agree,
// and the tee must have seen the same readings in the same order.
func TestSourceAdmissionMatchesPipeline(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxHosts = 256
	sizes := []int{0, 7, 511, 512, 513, 1300, 1027, 4000}
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
	admitted, admittedTee := build()
	piped, pipedTee := build()
	piped.emit = func(r Reading) bool { return ingest(piped, r) }

	for round := 0; round < 3*len(sizes); round++ {
		a, err := admitted.RunRound()
		if err != nil {
			t.Fatal(err)
		}
		b, err := piped.RunRound()
		if err != nil {
			t.Fatal(err)
		}
		if a.TelemetryDrained != b.TelemetryDrained {
			t.Fatalf("round %d: drained %d, through the pipeline %d", round, a.TelemetryDrained, b.TelemetryDrained)
		}
		if !slices.Equal(admitted.order, piped.order) || !maps.Equal(tableReadings(admitted), tableReadings(piped)) {
			t.Fatalf("round %d: host tables differ", round)
		}
		var sa, sb [3]int64
		sa[0], sa[1], sa[2] = admitted.IngestStats()
		sb[0], sb[1], sb[2] = piped.IngestStats()
		ra, _ := admitted.IngestRejected()
		rb, _ := piped.IngestRejected()
		if sa != sb || ra != rb {
			t.Fatalf("round %d: received/dropped/superseded %v rejected %v; through the pipeline %v %v", round, sa, ra, sb, rb)
		}
		if !slices.EqualFunc(admittedTee.Readings, pipedTee.Readings, sameReading) {
			t.Fatalf("round %d: the tee saw %d readings, through the pipeline %d, or a different order",
				round, len(admittedTee.Readings), len(pipedTee.Readings))
		}
	}
	received, dropped, superseded := admitted.IngestStats()
	_, rejected := admitted.IngestRejected()
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

// TestSourceBudgetBoundsAdvance: a source that emits five budgets' worth of
// readings in one Advance has at most the ingest capacity of them admitted;
// every other plausible one is dropped and counted, and none of them waits
// in the pipeline's buffer.
func TestSourceBudgetBoundsAdvance(t *testing.T) {
	const capacity, burst = 1000, 5000
	cfg := DefaultConfig()
	cfg.MaxHosts = 256
	src := &burstSource{rng: rand.New(rand.NewSource(7)), n: func() int { return burst }}
	c, err := NewWithSource(cfg, src, syntheticStable)
	if err != nil {
		t.Fatal(err)
	}
	withIngestBuffer(c, capacity)
	admitted, emit := 0, c.emit
	c.emit = func(r Reading) bool {
		ok := emit(r)
		if ok {
			admitted++
		}
		return ok
	}
	src.during = func() {
		c.ingest.mu.Lock()
		defer c.ingest.mu.Unlock()
		if n := len(c.ingest.buf); n != 0 {
			t.Fatalf("%d source readings wait in the pipeline's buffer", n)
		}
	}
	var received, dropped, rejected int64
	for round := 0; round < 3; round++ {
		admitted = 0
		rep, err := c.RunRound()
		if err != nil {
			t.Fatal(err)
		}
		rec, drop, _ := c.IngestStats()
		_, rej := c.IngestRejected()
		if admitted != capacity || rep.TelemetryDrained != capacity || rec-received != capacity {
			t.Fatalf("round %d: %d admitted, %d drained, %d received; budget %d", round, admitted, rep.TelemetryDrained, rec-received, capacity)
		}
		if got := (rec - received) + (drop - dropped) + (rej - rejected); got != burst {
			t.Fatalf("round %d: %d received + %d dropped + %d rejected, %d emitted", round, rec-received, drop-dropped, rej-rejected, burst)
		}
		received, dropped, rejected = rec, drop, rej
	}
}

// TestPushFloodKeepsSourceReadings: pushes that fill the ingest buffer
// leave the source's own budget untouched. A round whose source emits a
// buffer's worth of readings after the buffer is full admits every one of
// them, beside every accepted push: a push flood cannot starve the hosts a
// source reports of telemetry.
func TestPushFloodKeepsSourceReadings(t *testing.T) {
	const capacity = 64
	src := &sweepSource{}
	for i := 0; i < capacity; i++ {
		src.sweep = append(src.sweep, Reading{HostID: fmt.Sprintf("s%02d", i), TempC: 50, Util: 0.5})
	}
	c, err := NewWithSource(DefaultConfig(), src, syntheticStable)
	if err != nil {
		t.Fatal(err)
	}
	withIngestBuffer(c, capacity)
	for i := 0; i <= capacity; i++ {
		if got, want := ingest(c, Reading{HostID: fmt.Sprintf("p%02d", i), TempC: 40, Util: 0.5}), i < capacity; got != want {
			t.Fatalf("push %d accepted %v, want %v", i, got, want)
		}
	}
	rep, err := c.RunRound()
	if err != nil {
		t.Fatal(err)
	}
	table := tableReadings(c)
	for _, r := range src.sweep {
		if got, ok := table[r.HostID]; !ok || got.TempC != r.TempC {
			t.Fatalf("source host %s: reading %+v (present %v) after a push flood", r.HostID, got, ok)
		}
	}
	if rep.TelemetryDrained != 2*capacity {
		t.Fatalf("drained %d, want %d pushes + %d source readings", rep.TelemetryDrained, capacity, capacity)
	}
	if received, dropped, _ := c.IngestStats(); received != 2*capacity || dropped != 1 {
		t.Fatalf("received %d dropped %d, want %d and the one push past the buffer", received, dropped, 2*capacity)
	}
}

// TestTeeSeesRejectedPushes: the tee sees an implausible reading pushed
// through IngestBatch as it sees one a source emits, before either is
// rejected, so a capture replays with the same rejected count.
func TestTeeSeesRejectedPushes(t *testing.T) {
	src := &sweepSource{sweep: []Reading{{HostID: "s0", TempC: math.NaN(), Util: 0.5}}}
	c, err := NewWithSource(DefaultConfig(), src, syntheticStable)
	if err != nil {
		t.Fatal(err)
	}
	rec := &telemetry.Recorder{}
	c.TeeTelemetry(rec.Emit)
	results := make([]IngestResult, 1)
	if c.IngestBatch([]Reading{{HostID: "p0", TempC: math.NaN(), Util: 0.5}}, false, results) != 0 ||
		results[0].Outcome != IngestRejected {
		t.Fatalf("NaN push: outcome %v, want rejected", results[0].Outcome)
	}
	if _, err := c.RunRound(); err != nil {
		t.Fatal(err)
	}
	if _, rejected := c.IngestRejected(); len(rec.Readings) != 2 || rejected != 2 {
		t.Fatalf("teed %d readings, rejected %d; want 2 and 2", len(rec.Readings), rejected)
	}
}
