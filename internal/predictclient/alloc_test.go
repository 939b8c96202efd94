package predictclient

import (
	"context"
	"fmt"
	"net/http"
	"runtime"
	"slices"
	"testing"

	"vmtherm/internal/fleet"
	"vmtherm/internal/predictserver"
	"vmtherm/internal/telemetry"
)

// pushSource is a fleet source that emits nothing: its hosts report only
// through POST /v1/fleet/ingest.
type pushSource struct{ nowS float64 }

func (s *pushSource) Name() string  { return "push" }
func (s *pushSource) NowS() float64 { return s.nowS }
func (s *pushSource) Advance(dtS float64, _ func(telemetry.Reading) bool) error {
	s.nowS += dtS
	return nil
}

// typedExchange is one warm typed call through NewLocal. between, when set,
// runs after each call, outside what is measured, to hold the fixture in
// its steady state: a round drains the pushes, placed VMs are removed.
type typedExchange struct {
	name    string
	call    func() error
	between func() error
	bodies  *bodySizes
}

// bodySizes records the request and response body sizes of the last
// exchange a handler served.
type bodySizes struct {
	next      http.Handler
	req, resp int
}

func (b *bodySizes) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	b.req = int(r.ContentLength)
	b.resp = 0
	b.next.ServeHTTP(&countingWriter{ResponseWriter: w, n: &b.resp}, r)
}

type countingWriter struct {
	http.ResponseWriter
	n *int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	*w.n += len(p)
	return w.ResponseWriter.Write(p)
}

// typedExchanges builds the three per-round exchanges at the shapes a
// scheduler and a push agent send: a 128×16 stable batch, 64 readings
// answered with predictions, 16 VMs placed. Each server runs one worker.
func typedExchanges(tb testing.TB) []typedExchange {
	model, rec := testModel(tb)
	ctx := context.Background()
	local := func(opts ...predictserver.Option) (*Client, *bodySizes) {
		srv, err := predictserver.New(model, append([]predictserver.Option{predictserver.WithWorkers(1)}, opts...)...)
		if err != nil {
			tb.Fatal(err)
		}
		sizes := &bodySizes{next: srv.Handler()}
		c, err := NewLocal(sizes)
		if err != nil {
			tb.Fatal(err)
		}
		return c, sizes
	}

	rows := make([][]float64, 128)
	for i := range rows {
		rows[i] = append([]float64(nil), rec.Features...)
		rows[i][i%len(rows[i])] += float64(i) / 128
	}
	stable, stableSizes := local()

	const hosts = 64
	cfg := fleet.DefaultConfig()
	cfg.MaxHosts = hosts
	src := &pushSource{}
	pushed, err := fleet.NewWithSource(cfg, src, fleet.StableBatchPredictor(model, cfg.HorizonS))
	if err != nil {
		tb.Fatal(err)
	}
	ingest, ingestSizes := local(predictserver.WithFleet(pushed))
	readings := make([]predictserver.FleetReading, hosts)
	ids := make([]string, hosts)
	for i := range ids {
		// 22 bytes: a copy of each costs 24 B, so 64 of them are more
		// than TestTypedExchangeAllocs' headroom.
		ids[i] = fmt.Sprintf("compute-rack%02d-node%03d", i/16, i)
	}
	sweep := 0

	cfg = fleet.DefaultConfig()
	cfg.Racks, cfg.HostsPerRack = 1, 16
	sim, err := fleet.New(cfg, fleet.StableBatchPredictor(model, cfg.HorizonS))
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := sim.RunRound(); err != nil {
		tb.Fatal(err)
	}
	place, placeSizes := local(predictserver.WithFleet(sim))
	vms := make([]predictserver.FleetPlaceRequest, 16)
	for i := range vms {
		vms[i] = predictserver.FleetPlaceRequest{
			ID: fmt.Sprintf("vm-%02d", i), VCPUs: 2, MemoryGB: 4,
			Tasks: []predictserver.FleetTaskSpec{{CPUFraction: 0.25 + float64(i)/64, MemGB: 0.5}},
		}
	}

	return []typedExchange{
		{name: "stable", call: func() error {
			_, err := stable.PredictStableBatch(ctx, rows)
			return err
		}, bodies: stableSizes},
		{name: "ingest", call: func() error {
			// One sweep: every host reports inside the interval the next
			// round closes.
			for i := range readings {
				readings[i] = predictserver.FleetReading{
					HostID: ids[i], AtS: src.nowS + float64(i+1)/hosts,
					TempC: 40 + float64((i+sweep)%20), Util: float64(i%10) / 10, MemFrac: 0.25,
				}
			}
			resp, err := ingest.FleetIngestPredict(ctx, readings)
			if err == nil && sweep > 2 && resp.Streamed != hosts {
				err = fmt.Errorf("sweep %d: %d of %d readings streamed", sweep, resp.Streamed, hosts)
			}
			return err
		}, between: func() error {
			sweep++
			_, err := pushed.RunRound()
			return err
		}, bodies: ingestSizes},
		{name: "place", call: func() error {
			resp, err := place.FleetPlaceBatch(ctx, vms)
			if err == nil && resp.Placed != len(vms) {
				err = fmt.Errorf("%d of %d VMs placed", resp.Placed, len(vms))
			}
			return err
		}, between: func() error {
			for _, vm := range vms {
				if err := sim.RemoveVM(vm.ID); err != nil {
					return err
				}
			}
			return nil
		}, bodies: placeSizes},
	}
}

// TestTypedExchangeAllocs holds each warm typed exchange through NewLocal
// under a bytes-per-call ceiling, client and server together: the median of
// 63 calls measured on linux/amd64 with go1.24 plus a headroom. Every
// request and response body is larger than its headroom (checked), so a
// copy of either fails the test. Each headroom is one smallest allocation
// short of one per item — 8 B (the smallest size class of an object the
// tiny allocator does not pack) times 128 rows, 64 readings or 16 VMs,
// minus 8 — so a per-item allocation put back fails the test too. A median,
// because a call now and then regrows a pooled buffer that a garbage
// collection emptied out of the pool.
func TestTypedExchangeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool items at random")
	}
	measured := map[string]uint64{"stable": 3272, "ingest": 6960, "place": 13744}
	headrooms := map[string]uint64{"stable": 128*8 - 8, "ingest": 64*8 - 8, "place": 16*8 - 8}
	for _, ex := range typedExchanges(t) {
		step := func() {
			if err := ex.call(); err != nil {
				t.Fatalf("%s: %v", ex.name, err)
			}
			if ex.between != nil {
				if err := ex.between(); err != nil {
					t.Fatalf("%s: %v", ex.name, err)
				}
			}
		}
		for i := 0; i < 8; i++ {
			step()
		}
		headroom := headrooms[ex.name]
		if uint64(ex.bodies.req) <= headroom || uint64(ex.bodies.resp) <= headroom {
			t.Fatalf("%s: a %d B request or %d B response body could be copied within the %d B headroom",
				ex.name, ex.bodies.req, ex.bodies.resp, headroom)
		}
		var before, after runtime.MemStats
		perCall := make([]uint64, 63)
		for i := range perCall {
			runtime.ReadMemStats(&before)
			if err := ex.call(); err != nil {
				t.Fatalf("%s: %v", ex.name, err)
			}
			runtime.ReadMemStats(&after)
			perCall[i] = after.TotalAlloc - before.TotalAlloc
			if ex.between != nil {
				if err := ex.between(); err != nil {
					t.Fatalf("%s: %v", ex.name, err)
				}
			}
		}
		slices.Sort(perCall)
		median := perCall[len(perCall)/2]
		ceiling := measured[ex.name] + headroom
		t.Logf("%s: median %d B/call, range %d-%d, ceiling %d; bodies %d B out, %d B back",
			ex.name, median, perCall[0], perCall[len(perCall)-1], ceiling, ex.bodies.req, ex.bodies.resp)
		if median > ceiling {
			t.Errorf("%s: %d B per warm call, ceiling %d: is a body copied again?", ex.name, median, ceiling)
		}
	}
}

// BenchmarkTypedExchange runs each warm typed exchange through NewLocal,
// client and server together; between-call upkeep is not timed. The loop
// counts to b.N: go1.24's b.Loop never ends a timed run whose body stops
// and restarts the timer.
//
//	go test -run '^$' -bench TypedExchange -benchmem ./internal/predictclient
func BenchmarkTypedExchange(b *testing.B) {
	for _, ex := range typedExchanges(b) {
		b.Run(ex.name, func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				if err := ex.call(); err != nil {
					b.Fatal(err)
				}
				if ex.between != nil {
					b.StopTimer()
					if err := ex.between(); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
				}
			}
		})
	}
}
