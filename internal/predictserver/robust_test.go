package predictserver

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"vmtherm/internal/fleet"
)

// onesReader is an endless "1,1,1,…": the inside of a JSON array that never
// closes, produced without holding it in memory.
type onesReader struct{ off int }

func (o *onesReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = "1,"[(o.off+i)%2]
	}
	o.off += len(p)
	return len(p), nil
}

// TestOversizedBodies: every POST route caps its body — 1 MiB on the
// single-item routes, 64 MiB on the batch routes — answers 413 past the
// cap, and on the way allocates a small multiple of the cap however much
// more the client is willing to send.
func TestOversizedBodies(t *testing.T) {
	m, _ := testModel(t)
	srv, err := New(m, WithFleet(hotFleet(t)))
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()

	posts := 0
	for _, pattern := range srv.RoutePatterns() {
		method, path, _ := strings.Cut(pattern, " ")
		if method != http.MethodPost {
			continue
		}
		posts++
		limit := int64(maxItemBodyBytes)
		if strings.Contains(path, "batch") || strings.HasSuffix(path, "/ingest") {
			limit = maxBatchBodyBytes
		}
		if limit == maxBatchBodyBytes && testing.Short() {
			continue
		}
		path = strings.Replace(path, "{id}", "s1", 1) // the body is read before the session is looked up
		t.Run(path, func(t *testing.T) {
			// Sixteen times the cap on offer, length undeclared.
			body := io.MultiReader(strings.NewReader(`{"features":[`), io.LimitReader(&onesReader{}, 16*limit))
			req := httptest.NewRequest(http.MethodPost, path, struct{ io.Reader }{body})
			rec := httptest.NewRecorder()

			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			h.ServeHTTP(rec, req)
			runtime.ReadMemStats(&after)

			if rec.Code != http.StatusRequestEntityTooLarge {
				t.Fatalf("status %d (%s), want 413", rec.Code, rec.Body)
			}
			var msg map[string]string
			if err := json.Unmarshal(rec.Body.Bytes(), &msg); err != nil || !strings.Contains(msg["error"], "too large") {
				t.Errorf("error body %q (%v), want the decodeBatch shape", rec.Body, err)
			}
			// A buffer that doubles until it holds the cap has allocated
			// about four times the cap in total; the sixteen on offer, or
			// what they would decode to, is what must not show.
			if grew := int64(after.TotalAlloc - before.TotalAlloc); grew > 6*limit {
				t.Errorf("allocated %d MiB refusing a body capped at %d MiB", grew>>20, limit>>20)
			}
		})
	}
	if posts != 9 {
		t.Fatalf("covered %d POST routes, the server registers 9", posts)
	}

	// A declared length past the cap is refused before a byte is read.
	req := httptest.NewRequest(http.MethodPost, "/v1/stable/batch", struct{ io.Reader }{&onesReader{}})
	req.ContentLength = maxBatchBodyBytes + 1
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("declared oversize: status %d, want 413", rec.Code)
	}
}

// TestIngestHostIDBound: the ingest pipeline bounds how many readings it
// holds, not their bytes, so a host_id past MaxHostIDBytes refuses the whole
// batch with 422 before any of it is ingested; one at the bound is taken.
func TestIngestHostIDBound(t *testing.T) {
	cfg := fleet.DefaultConfig()
	cfg.Racks, cfg.HostsPerRack = 1, 2
	ctl, err := fleet.New(cfg, fleet.SyntheticStablePredictor(75))
	if err != nil {
		t.Fatal(err)
	}
	m, _ := testModel(t)
	srv, err := New(m, WithFleet(ctl))
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	post := func(ids ...string) *httptest.ResponseRecorder {
		var req FleetIngestRequest
		for _, id := range ids {
			req.Readings = append(req.Readings, FleetReading{HostID: id, AtS: 1, TempC: 44})
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/fleet/ingest", bytes.NewReader(mustMarshal(t, &req))))
		return rec
	}

	rec := post("r0-h0", strings.Repeat("é", MaxHostIDBytes/2+1))
	if rec.Code != http.StatusUnprocessableEntity || !strings.Contains(rec.Body.String(), "exceeds 253") {
		t.Fatalf("over-long host_id: %d %q, want 422 naming the bound", rec.Code, rec.Body)
	}
	if received, dropped, _ := ctl.IngestStats(); received+dropped != 0 {
		t.Fatalf("a refused batch reached the pipeline: %d received, %d dropped", received, dropped)
	}
	if rec := post("r0-h0", strings.Repeat("h", MaxHostIDBytes)); rec.Code != http.StatusOK {
		t.Fatalf("host_id at the bound: %d %q, want 200", rec.Code, rec.Body)
	}
	if received, _, _ := ctl.IngestStats(); received != 2 {
		t.Fatalf("pipeline received %d readings, want 2", received)
	}
}

// explicitTasksBody is a one-item placement batch of count replicas, each
// carrying tasks explicit {} tasks.
func explicitTasksBody(count, tasks int) string {
	return `{"vms":[{"id":"t","count":` + strconv.Itoa(count) + `,"vcpus":1,"memory_gb":1,"tasks":[` +
		strings.TrimSuffix(strings.Repeat("{},", tasks), ",") + `]}]}`
}

// placeCopiesExceedLimit is the batch route's size rule, summed in floats
// that cannot wrap: more than MaxBatchItems replicas, or more than
// MaxBatchItems explicit task copies (each item's tasks × its count).
func placeCopiesExceedLimit(req *FleetPlaceBatchRequest) bool {
	var replicas, tasks float64
	for _, vm := range req.VMs {
		n := float64(max(vm.Count, 1))
		replicas += n
		tasks += n * float64(len(vm.Tasks))
	}
	return replicas > MaxBatchItems || tasks > MaxBatchItems
}

// placeIDTooLong reports whether an item's id, with the "-%03d" suffix of
// its last replica, is longer than MaxHostIDBytes.
func placeIDTooLong(req *FleetPlaceBatchRequest) bool {
	for _, vm := range req.VMs {
		id := vm.ID
		if vm.Count > 1 {
			id = fmt.Sprintf("%s-%03d", id, vm.Count-1)
		}
		if len(id) > MaxHostIDBytes {
			return true
		}
	}
	return false
}

// TestPlaceBatchExplicitTasksBounded: every replica of a batch item copies
// its explicit tasks, so a 60 KB body of 20,000 {} tasks at count 200 used
// to build 4,000,000 task specs and allocate 1.25 GB before placing
// anything. Explicit tasks × count, summed over the batch, is held to
// MaxBatchItems like the replica count: past it the batch answers 413 for
// the cost of reading the body; at it the batch is placed.
func TestPlaceBatchExplicitTasksBounded(t *testing.T) {
	cfg := fleet.DefaultConfig()
	cfg.Racks, cfg.HostsPerRack = 1, 4
	ctl, err := fleet.New(cfg, fleet.SyntheticStablePredictor(75))
	if err != nil {
		t.Fatal(err)
	}
	m, _ := testModel(t)
	srv, err := New(m, WithFleet(ctl))
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	post := func(body string) (*httptest.ResponseRecorder, uint64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/fleet/place/batch", strings.NewReader(body)))
		runtime.ReadMemStats(&after)
		return rec, after.TotalAlloc - before.TotalAlloc
	}

	body := explicitTasksBody(200, 20000)
	rec, alloc := post(body)
	if rec.Code != http.StatusRequestEntityTooLarge || !strings.Contains(rec.Body.String(), "explicit tasks") {
		t.Fatalf("%d-byte body of 200 × 20,000 tasks: %d %q, want 413", len(body), rec.Code, rec.Body)
	}
	if alloc > 4<<20 {
		t.Errorf("%d-byte body of 200 × 20,000 tasks allocated %d KB", len(body), alloc>>10)
	}
	// Summed over items: 2 × 32,768 fills the limit, one more task passes it.
	over := strings.Replace(explicitTasksBody(2, 32768), `]}]}`, `]},{"id":"u","vcpus":1,"memory_gb":1,"tasks":[{}]}]}`, 1)
	if rec, _ := post(over); rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("65,537 explicit task copies over two items: %d %q, want 413", rec.Code, rec.Body)
	}
	if rec, _ := post(explicitTasksBody(2, 32768)); rec.Code != http.StatusOK {
		t.Fatalf("65,536 explicit task copies: %d %q, want 200", rec.Code, rec.Body)
	}
}

// TestPlaceVMIDBounded: every replica id and every default task id copies
// a placement's VM id, so a 100 KB body of one VM with a 100 KB id at count
// 500 used to allocate 845 MB and answer 50 MB. An id longer than
// MaxHostIDBytes once its replica suffix is added answers 422 naming the
// item, on both placement routes, before anything is expanded from it.
func TestPlaceVMIDBounded(t *testing.T) {
	cfg := fleet.DefaultConfig()
	cfg.Racks, cfg.HostsPerRack = 1, 4
	ctl, err := fleet.New(cfg, fleet.SyntheticStablePredictor(75))
	if err != nil {
		t.Fatal(err)
	}
	m, _ := testModel(t)
	srv, err := New(m, WithFleet(ctl))
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	post := func(path, body string) (*httptest.ResponseRecorder, uint64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		runtime.ReadMemStats(&after)
		return rec, after.TotalAlloc - before.TotalAlloc
	}
	vm := func(idLen, count int) string {
		return fmt.Sprintf(`{"id":%q,"vcpus":8,"memory_gb":4,"count":%d}`, strings.Repeat("v", idLen), count)
	}
	for _, tc := range []struct {
		name  string
		path  string
		body  string
		want  int
		index string
	}{
		{"100 KB id × 500", "/v1/fleet/place/batch", `{"vms":[` + vm(100_000, 500) + `]}`, http.StatusUnprocessableEntity, "vms[0]"},
		{"254-byte id", "/v1/fleet/place/batch", `{"vms":[` + vm(1, 1) + `,` + vm(254, 1) + `]}`, http.StatusUnprocessableEntity, "vms[1]"},
		{"250-byte id, 4-byte suffix", "/v1/fleet/place/batch", `{"vms":[` + vm(250, 2) + `]}`, http.StatusUnprocessableEntity, "vms[0]"},
		{"249-byte id, 5-byte suffix", "/v1/fleet/place/batch", `{"vms":[` + vm(249, 1001) + `]}`, http.StatusUnprocessableEntity, "vms[0]"},
		{"249-byte id, 4-byte suffix", "/v1/fleet/place/batch", `{"vms":[` + vm(249, 2) + `]}`, http.StatusOK, ""},
		{"253-byte id", "/v1/fleet/place/batch", `{"vms":[` + vm(253, 1) + `]}`, http.StatusOK, ""},
		{"single 254-byte id", "/v1/fleet/place", vm(254, 0), http.StatusUnprocessableEntity, "254 bytes"},
	} {
		rec, alloc := post(tc.path, tc.body)
		if rec.Code != tc.want || !strings.Contains(rec.Body.String(), tc.index) {
			t.Errorf("%s: %d %.200q, want %d naming %s", tc.name, rec.Code, rec.Body, tc.want, tc.index)
		}
		if tc.want != http.StatusOK && alloc > 4*uint64(len(tc.body))+1<<20 {
			t.Errorf("%s: refusing a %d-byte body allocated %d KB", tc.name, len(tc.body), alloc>>10)
		}
	}
}

// TestEncodeFailureAnswers500: a response encoding/json refuses (a NaN
// prediction) used to go out as the handler's 200 with no body at all, which
// clients report as EOF. It must be a 500 with the usual error body, from
// the generic writer and from the typed one.
func TestEncodeFailureAnswers500(t *testing.T) {
	check := func(name string, rec *httptest.ResponseRecorder) {
		t.Helper()
		var msg map[string]string
		if err := json.Unmarshal(rec.Body.Bytes(), &msg); err != nil {
			t.Fatalf("%s: body %q: %v", name, rec.Body, err)
		}
		if rec.Code != http.StatusInternalServerError || !strings.Contains(msg["error"], "NaN") {
			t.Fatalf("%s: %d %q, want 500 naming the NaN", name, rec.Code, rec.Body)
		}
		if got := rec.Header().Get("Content-Length"); got != "" && got != strconv.Itoa(rec.Body.Len()) {
			t.Fatalf("%s: Content-Length %s for a %d-byte body", name, got, rec.Body.Len())
		}
	}
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, StableResponse{StableTempC: math.NaN()})
	check("writeJSON", rec)

	rec = httptest.NewRecorder()
	new(wireScratch).writeWire(rec, &StableBatchResponse{StableTempsC: []float64{61.8, math.NaN()}})
	check("writeWire", rec)

	// And a value that does encode carries its length.
	rec = httptest.NewRecorder()
	writeJSON(rec, http.StatusCreated, StableResponse{StableTempC: 61.8})
	if rec.Code != http.StatusCreated || rec.Body.String() != "{\"stable_temp_c\":61.8}\n" || rec.Header().Get("Content-Length") != "23" {
		t.Fatalf("writeJSON: %d %q (Content-Length %s)", rec.Code, rec.Body, rec.Header().Get("Content-Length"))
	}
}

// FuzzPlaceBatchBody: whatever the bytes, POST /v1/fleet/place/batch
// decodes them to exactly what a json.Decoder does, answers a well-formed
// JSON body with a status it documents, and never panics.
func FuzzPlaceBatchBody(f *testing.F) {
	for _, seed := range []string{
		`{"vms":[{"id":"a","vcpus":1,"memory_gb":2,"tasks":[{"cpu_fraction":0.3,"mem_gb":0.5}]}]}`,
		`{"vms":[{"id":"b","count":3,"vcpus":2,"memory_gb":4}]}`,
		`{"vms":[{"id":"","count":2,"vcpus":1,"memory_gb":1}]}`,
		`{"vms":[{"id":"giant","vcpus":4096,"memory_gb":4}]}`,
		`{"vms":[{"id":"neg","vcpus":-1,"memory_gb":-4,"count":-7}]}`,
		`{"vms":[{"id":"frac","vcpus":1,"memory_gb":1,"tasks":[{"cpu_fraction":1e999}]}]}`,
		`{"vms":[{"id":"many","count":70000,"vcpus":1,"memory_gb":1}]}`,
		`{"vms":[{"id":"x","vcpus":1,"memory_gb":1}],"vms":[]}`,
		`{"vms":null}`, `{"vms":[null]}`, `{"vms":[{"id":null}]}`, `{"VMS":[{"ID":"A"}]}`,
		`{"vms":[{"id":"a"}]} trailing`, `{"vms":[{"id":"a"`, `[]`, `01`, `-0`, ``,
		// Two counts that wrap an int sum to -2: must answer 413, not reach make.
		`{"vms":[{"id":"a","count":9223372036854775807,"vcpus":1,"memory_gb":1},{"id":"b","count":9223372036854775807,"vcpus":1,"memory_gb":1}]}`,
		// 3 × 21,846 explicit task copies, two past the limit: 413.
		explicitTasksBody(3, 21846),
		// An id one byte past MaxHostIDBytes: 422 before any expansion.
		`{"vms":[{"id":"` + strings.Repeat("i", MaxHostIDBytes+1) + `","vcpus":1,"memory_gb":1}]}`,
	} {
		f.Add([]byte(seed))
	}
	for _, s := range placeBodySeeds {
		f.Add([]byte(s.body))
	}
	fx := wireFixtures()
	f.Add(mustMarshal(f, &fx.place))
	cfg := fleet.DefaultConfig()
	cfg.Racks, cfg.HostsPerRack = 1, 4
	ctl, err := fleet.New(cfg, fleet.SyntheticStablePredictor(75))
	if err != nil {
		f.Fatal(err)
	}
	m, _ := testModel(f)
	srv, err := New(m, WithFleet(ctl))
	if err != nil {
		f.Fatal(err)
	}
	h := srv.Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		diffPlaceRequest(t, body)
		var req FleetPlaceBatchRequest
		decoded := DecodeWire(body, &req) == nil
		oversize := decoded && placeCopiesExceedLimit(&req)
		longID := decoded && !oversize && placeIDTooLong(&req)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/fleet/place/batch", bytes.NewReader(body)))
		if oversize && rec.Code != http.StatusRequestEntityTooLarge {
			t.Fatalf("body %q: %d, want 413 for more than %d replicas or explicit task copies", body, rec.Code, MaxBatchItems)
		}
		if longID && rec.Code != http.StatusUnprocessableEntity {
			t.Fatalf("body %.300q: %d, want 422 for a vm id over %d bytes with its replica suffix", body, rec.Code, MaxHostIDBytes)
		}
		switch rec.Code {
		case http.StatusOK:
			var resp FleetPlaceBatchResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatalf("body %q: 200 with %q: %v", body, rec.Body, err)
			}
			if resp.Placed+resp.Queued+resp.Rejected != len(resp.Results) {
				t.Fatalf("body %q: totals %d+%d+%d for %d results", body, resp.Placed, resp.Queued, resp.Rejected, len(resp.Results))
			}
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge, http.StatusUnprocessableEntity:
			var msg map[string]string
			if err := json.Unmarshal(rec.Body.Bytes(), &msg); err != nil || msg["error"] == "" {
				t.Fatalf("body %q: %d with %q (%v)", body, rec.Code, rec.Body, err)
			}
		default:
			t.Fatalf("body %q: undocumented status %d %q", body, rec.Code, rec.Body)
		}
	})
}
