package predictclient

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"reflect"
	"sync"
	"testing"

	"vmtherm/internal/predictserver"
)

// scriptedServer answers every request with one canned body and keeps the
// request bodies it saw.
type scriptedServer struct {
	status int
	reply  string
	mu     sync.Mutex
	bodies [][]byte
}

func (s *scriptedServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	body, _ := io.ReadAll(r.Body)
	s.mu.Lock()
	s.bodies = append(s.bodies, body)
	s.mu.Unlock()
	w.WriteHeader(s.status)
	_, _ = io.WriteString(w, s.reply)
}

// TestWireRequestBytesUnchanged: the typed encoders put on the wire exactly
// what json.Marshal of the request struct put there before, including for
// values only the fallback handles (an id that needs escaping) and with the
// Content-Length the server-side byte counters read.
func TestWireRequestBytesUnchanged(t *testing.T) {
	srv := &scriptedServer{status: http.StatusOK, reply: `{"stable_temps_c":[1,2,3],"accepted":3,"dropped":0}`}
	var lengths []int64
	c, err := NewLocal(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		lengths = append(lengths, r.ContentLength)
		srv.ServeHTTP(w, r)
	}))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	rows := [][]float64{{1, 2.5, -0.0}, {1e21, 1e-7, 61.80000000000001}, nil}
	readings := []predictserver.FleetReading{
		{HostID: "r0-h0", AtS: 15, TempC: 44.25, Util: 0.5},
		{HostID: `rack "7" <a&b>`, AtS: 16, TempC: 40},
		{HostID: "hôte", AtS: 17, TempC: 41, MemFrac: 1e-9},
	}
	if _, err := c.PredictStableBatch(ctx, rows); err != nil {
		t.Fatal(err)
	}
	if _, err := c.FleetIngest(ctx, readings); err != nil {
		t.Fatal(err)
	}
	if _, err := c.FleetIngestPredict(ctx, readings[:1]); err != nil {
		t.Fatal(err)
	}
	vms := []predictserver.FleetPlaceRequest{
		{ID: "vm-1", VCPUs: 2, MemoryGB: 4, Tasks: []predictserver.FleetTaskSpec{{CPUFraction: 0.55, MemGB: 0.5}, {CPUFraction: 1e-7}}},
		{ID: "storm", VCPUs: 1, MemoryGB: 2, Count: 3, Tasks: []predictserver.FleetTaskSpec{}},
		{ID: "vm \"q\" <&>", VCPUs: -1, MemoryGB: -0.0},
		{ID: "hôte", VCPUs: 2_000_000_000, MemoryGB: 61.80000000000001},
	}
	if _, err := c.FleetPlaceBatch(ctx, vms); err != nil {
		t.Fatal(err)
	}
	if _, err := c.FleetPlaceBatch(ctx, vms[:2]); err != nil {
		t.Fatal(err)
	}
	for i, want := range []any{
		predictserver.StableBatchRequest{Rows: rows},
		predictserver.FleetIngestRequest{Readings: readings},
		predictserver.FleetIngestRequest{Readings: readings[:1], Predict: true},
		predictserver.FleetPlaceBatchRequest{VMs: vms},
		predictserver.FleetPlaceBatchRequest{VMs: vms[:2]},
	} {
		raw, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(srv.bodies[i], raw) {
			t.Errorf("request %d:\n sent %s\n want %s", i, srv.bodies[i], raw)
		}
		if lengths[i] != int64(len(raw)) {
			t.Errorf("request %d: Content-Length %d for %d bytes", i, lengths[i], len(raw))
		}
	}
	// A value no encoder takes is the caller's error, not a request.
	if _, err := c.PredictStableBatch(ctx, [][]float64{{math.NaN()}}); err == nil || len(srv.bodies) != 5 {
		t.Fatalf("NaN feature: err %v after %d requests, want an error and no request", err, len(srv.bodies))
	}
}

// TestWireResponsesAnyConformantJSON: the client's typed parsers read what
// this server sends; anything else a server may legitimately send — other
// key order, whitespace, escapes, keys from a newer release — decodes
// through encoding/json to the same result.
func TestWireResponsesAnyConformantJSON(t *testing.T) {
	ctx := context.Background()
	rows := [][]float64{{1}, {2}}
	for _, reply := range []string{
		`{"stable_temps_c":[61.8,-0.5]}` + "\n",
		"{ \"stable_temps_c\" :\n [ 6.18e1 , -5e-1 ] }",
		`{"model":"v2","stable_temps_c":[61.8,-0.5]}`,
		`{"stable_temps_c":[0],"stable_temps_c":[61.8,-0.5]}`,
	} {
		c, err := NewLocal(&scriptedServer{status: http.StatusOK, reply: reply})
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.PredictStableBatch(ctx, rows)
		if err != nil || !reflect.DeepEqual(got, []float64{61.8, -0.5}) {
			t.Errorf("reply %q: %v, %v", reply, got, err)
		}
	}

	want := &predictserver.FleetIngestResponse{
		Accepted: 2, Streamed: 1, Deferred: 1,
		Predictions: []predictserver.FleetIngestPrediction{
			{HostID: "r0-h0", Outcome: "streamed", PredictedTempC: 63.4, UncertaintyC: 0.8},
			{HostID: `new "host"`, Outcome: "deferred"},
		},
	}
	for _, reply := range []string{
		`{"accepted":2,"dropped":0,"streamed":1,"deferred":1,"predictions":[{"host_id":"r0-h0","outcome":"streamed","predicted_temp_c":63.4,"uncertainty_c":0.8},{"host_id":"new \"host\"","outcome":"deferred"}]}`,
		`{"predictions":[{"outcome":"streamed","uncertainty_c":8e-1,"host_id":"r0-h0","predicted_temp_c":63.4},{"outcome":"deferred","host_id":"new \u0022host\u0022"}],"deferred":1,"streamed":1,"accepted":2,"queue_depth":7}`,
	} {
		c, err := NewLocal(&scriptedServer{status: http.StatusOK, reply: reply})
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.FleetIngestPredict(ctx, make([]predictserver.FleetReading, 2))
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("reply %q:\n got  %+v (%v)\n want %+v", reply, got, err, want)
		}
	}

	wantPlaced := &predictserver.FleetPlaceBatchResponse{
		Placed: 1, Rejected: 1,
		Results: []predictserver.FleetPlaceResponse{
			{VMID: "a", Status: "placed", HostID: "r0-h1", PredictedStableC: 61.8},
			{VMID: "b", Status: "rejected", RejectCode: "infeasible", Reason: "shape 4096vCPU can never fit 16vCPU(×1.5)"},
		},
	}
	for _, reply := range []string{
		`{"results":[{"vm_id":"a","status":"placed","host_id":"r0-h1","predicted_stable_c":61.8},{"vm_id":"b","status":"rejected","reject_code":"infeasible","reason":"shape 4096vCPU can never fit 16vCPU(×1.5)"}],"placed":1,"queued":0,"rejected":1}` + "\n",
		`{ "rejected" : 1, "placed" : 1, "results" : [ {"status":"placed","predicted_stable_c":6.18e1,"vm_id":"a","host_id":"r0-h1"}, {"vm_id":"b","status":"rejected","reject_code":"infeasible","reason":"shape 4096vCPU can never fit 16vCPU(\u00d71.5)","host_id":""} ], "round":9 }`,
	} {
		c, err := NewLocal(&scriptedServer{status: http.StatusOK, reply: reply})
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.FleetPlaceBatch(ctx, make([]predictserver.FleetPlaceRequest, 2))
		if err != nil || !reflect.DeepEqual(got, wantPlaced) {
			t.Errorf("reply %q:\n got  %+v (%v)\n want %+v", reply, got, err, wantPlaced)
		}
	}

	// Failures keep their shape: an API error, a count mismatch, no body.
	c, _ := NewLocal(&scriptedServer{status: http.StatusServiceUnavailable, reply: `{"error":"no fleet control plane attached"}`})
	var apiErr *APIError
	if _, err := c.FleetIngestPredict(ctx, nil); !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusServiceUnavailable || apiErr.Message != "no fleet control plane attached" {
		t.Errorf("503: %v", err)
	}
	c, _ = NewLocal(&scriptedServer{status: http.StatusOK, reply: `{"stable_temps_c":[1]}`})
	if _, err := c.PredictStableBatch(ctx, rows); err == nil {
		t.Error("one prediction for two rows accepted")
	}
	c, _ = NewLocal(&scriptedServer{status: http.StatusOK})
	if _, err := c.PredictStableBatch(ctx, rows); !errors.Is(err, io.EOF) {
		t.Errorf("empty 200: %v, want EOF as before", err)
	}
}

// TestWireClientConcurrent (run under -race in CI): the pooled buffer is
// per call; concurrent callers each get their own rows' answers.
func TestWireClientConcurrent(t *testing.T) {
	c, rec := testServer(t)
	ctx := context.Background()
	want, err := c.PredictStable(ctx, rec.Features)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				rows := make([][]float64, 1+(w*20+i)%37)
				for k := range rows {
					rows[k] = rec.Features
				}
				got, err := c.PredictStableBatch(ctx, rows)
				if err != nil || len(got) != len(rows) {
					t.Errorf("worker %d: %d predictions for %d rows: %v", w, len(got), len(rows), err)
					return
				}
				for _, v := range got {
					if math.Abs(v-want) > 1e-6 {
						t.Errorf("worker %d: prediction %v, want %v", w, v, want)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}
