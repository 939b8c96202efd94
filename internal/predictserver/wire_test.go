package predictserver

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"vmtherm/internal/fleet"
)

// The oracle for every test in this file is encoding/json itself: a typed
// encoder must produce json.Marshal's bytes, and DecodeWire must produce a
// json.Decoder's value and error-or-not, for every input.

// sameFloat compares bit patterns: -0 and 0 are different answers.
func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func sameFloats(a, b []float64) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameFloat(a[i], b[i]) {
			return false
		}
	}
	return true
}

func sameStableRequest(a, b *StableBatchRequest) bool {
	if (a.Rows == nil) != (b.Rows == nil) || len(a.Rows) != len(b.Rows) {
		return false
	}
	for i := range a.Rows {
		if !sameFloats(a.Rows[i], b.Rows[i]) {
			return false
		}
	}
	return true
}

func sameIngestRequest(a, b *FleetIngestRequest) bool {
	if a.Predict != b.Predict || (a.Readings == nil) != (b.Readings == nil) || len(a.Readings) != len(b.Readings) {
		return false
	}
	for i := range a.Readings {
		x, y := a.Readings[i], b.Readings[i]
		if x.HostID != y.HostID || !sameFloat(x.AtS, y.AtS) || !sameFloat(x.TempC, y.TempC) ||
			!sameFloat(x.Util, y.Util) || !sameFloat(x.MemFrac, y.MemFrac) {
			return false
		}
	}
	return true
}

func sameIngestResponse(a, b *FleetIngestResponse) bool {
	if a.Accepted != b.Accepted || a.Dropped != b.Dropped || a.Rejected != b.Rejected ||
		a.Streamed != b.Streamed || a.Deferred != b.Deferred ||
		(a.Predictions == nil) != (b.Predictions == nil) || len(a.Predictions) != len(b.Predictions) {
		return false
	}
	for i := range a.Predictions {
		x, y := a.Predictions[i], b.Predictions[i]
		if x.HostID != y.HostID || x.Outcome != y.Outcome ||
			!sameFloat(x.PredictedTempC, y.PredictedTempC) || !sameFloat(x.UncertaintyC, y.UncertaintyC) {
			return false
		}
	}
	return true
}

func samePlaceRequest(a, b *FleetPlaceBatchRequest) bool {
	if (a.VMs == nil) != (b.VMs == nil) || len(a.VMs) != len(b.VMs) {
		return false
	}
	for i := range a.VMs {
		x, y := &a.VMs[i], &b.VMs[i]
		if x.ID != y.ID || x.VCPUs != y.VCPUs || !sameFloat(x.MemoryGB, y.MemoryGB) || x.Count != y.Count ||
			(x.Tasks == nil) != (y.Tasks == nil) || len(x.Tasks) != len(y.Tasks) {
			return false
		}
		for j := range x.Tasks {
			if !sameFloat(x.Tasks[j].CPUFraction, y.Tasks[j].CPUFraction) || !sameFloat(x.Tasks[j].MemGB, y.Tasks[j].MemGB) {
				return false
			}
		}
	}
	return true
}

func samePlaceResponse(a, b *FleetPlaceBatchResponse) bool {
	if a.Placed != b.Placed || a.Queued != b.Queued || a.Rejected != b.Rejected ||
		(a.Results == nil) != (b.Results == nil) || len(a.Results) != len(b.Results) {
		return false
	}
	for i := range a.Results {
		x, y := a.Results[i], b.Results[i]
		if x.VMID != y.VMID || x.Status != y.Status || x.HostID != y.HostID || !sameFloat(x.PredictedStableC, y.PredictedStableC) ||
			x.RejectCode != y.RejectCode || x.Reason != y.Reason {
			return false
		}
	}
	return true
}

// The differential checks decode into a message that lives across calls, as
// the server's pooled one does, so state a previous body left behind counts.
var (
	diffStable     StableBatchRequest
	diffTemps      StableBatchResponse
	diffIngest     FleetIngestRequest
	diffIngestResp FleetIngestResponse
	diffPlace      FleetPlaceBatchRequest
	diffPlaced     FleetPlaceBatchResponse
)

// diffDecode checks DecodeWire(body, got) against a json.Decoder into a
// fresh value of the same type.
func diffDecode(t *testing.T, body []byte, got, want WireMessage, same func() bool) {
	t.Helper()
	gotErr := DecodeWire(body, got)
	wantErr := json.NewDecoder(bytes.NewReader(body)).Decode(want)
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Fatalf("body %q:\n DecodeWire error %v\n json error      %v", body, gotErr, wantErr)
	}
	if !same() {
		t.Fatalf("body %q:\n DecodeWire %+v\n json       %+v", body, got, want)
	}
}

func diffStableRequest(t *testing.T, body []byte) {
	t.Helper()
	var want StableBatchRequest
	diffDecode(t, body, &diffStable, &want, func() bool { return sameStableRequest(&diffStable, &want) })
}

func diffIngestRequest(t *testing.T, body []byte) {
	t.Helper()
	var want FleetIngestRequest
	diffDecode(t, body, &diffIngest, &want, func() bool { return sameIngestRequest(&diffIngest, &want) })
}

func diffPlaceRequest(t *testing.T, body []byte) {
	t.Helper()
	var want FleetPlaceBatchRequest
	diffDecode(t, body, &diffPlace, &want, func() bool { return samePlaceRequest(&diffPlace, &want) })
}

func diffResponses(t *testing.T, body []byte) {
	t.Helper()
	var wantTemps StableBatchResponse
	diffDecode(t, body, &diffTemps, &wantTemps, func() bool { return sameFloats(diffTemps.StableTempsC, wantTemps.StableTempsC) })
	var wantResp FleetIngestResponse
	diffDecode(t, body, &diffIngestResp, &wantResp, func() bool { return sameIngestResponse(&diffIngestResp, &wantResp) })
	var wantPlaced FleetPlaceBatchResponse
	diffDecode(t, body, &diffPlaced, &wantPlaced, func() bool { return samePlaceResponse(&diffPlaced, &wantPlaced) })
}

// stableBodySeeds, ingestBodySeeds and placeBodySeeds are the fuzz corpora
// and the table of TestWireParsersClaim: claimed says whether the typed
// parser, not the fallback, is expected to take the body.
var stableBodySeeds = []struct {
	body    string
	claimed bool
}{
	{`{"rows":[[1,2.5,-3e2],[0.1,1E-7,1e+21]]}`, true},
	{" {\t\"rows\" :\r\n[ [ 1 , 2 ] , [ ] ]\n}\n ", true},
	{`{"rows":[]}`, true},
	{`{}`, true},
	{`{"rows":[[-0,0,-0.0,0e0]]}`, true},
	{`{"rows":[[1e-400,4.9e-324,1.7976931348623157e308]]}`, true},
	{`{"rows":[[12345678901234567890123456789012345678901234567890.5]]}`, true},
	{`{"rows":null}`, false},
	{`{"rows":[null]}`, false},
	{`{"rows":[[null]]}`, false},
	{`{"rows":[[1]],"rows":[[2,3]]}`, false},
	{`{"rows":[[1]],"extra":true}`, false},
	{`{"ROWS":[[1]]}`, false},
	{`{"ro\u0077s":[[1]]}`, false},
	{`{"rows":[[1e999]]}`, false},
	{`{"rows":[[01]]}`, false},
	{`{"rows":[[1.]]}`, false},
	{`{"rows":[[.5]]}`, false},
	{`{"rows":[[+1]]}`, false},
	{`{"rows":[[0x10]]}`, false},
	{`{"rows":[[1_0]]}`, false},
	{`{"rows":[[NaN]]}`, false},
	{`{"rows":[[1,]]}`, false},
	{`{"rows":[[1],]}`, false},
	{`{"rows":[[1]],}`, false},
	{`{"rows":[["1"]]}`, false},
	{`{"rows":[1,2]}`, false},
	{`{"rows":[[1]]} trailing`, false},
	{`{"rows":[[1]]}{"rows":[[2]]}`, false},
	{`{"rows":[[1]]`, false},
	{`{"rows":[[1`, false},
	{`{"rows"`, false},
	{"{\"rows\":[[1\x00]]}", false},
	{"\x00{\"rows\":[[1]]}", false},
	{`[[1]]`, false},
	{`"rows"`, false},
	{`7`, false},
	{``, false},
	{`   `, false},
}

var ingestBodySeeds = []struct {
	body    string
	claimed bool
}{
	{`{"readings":[{"host_id":"r0-h0","at_s":15,"temp_c":44.25,"util":0.5,"mem_frac":0.25}],"predict":true}`, true},
	{`{"predict":false,"readings":[{"mem_frac":1,"util":0,"temp_c":-0,"at_s":1e3,"host_id":"a"},{"host_id":"b","at_s":2,"temp_c":3}]}`, true},
	{" { \"readings\" : [ { \"host_id\" : \"a b\" , \"at_s\" : 1 } , { } ] } ", true},
	{`{"readings":[]}`, true},
	{`{"predict":true}`, true},
	{`{}`, true},
	{`{"readings":[{"host_id":"hôte-é","at_s":1,"temp_c":2}]}`, true},
	{`{"readings":[{"host_id":"","at_s":1,"temp_c":2}]}`, true},
	// host_ids whose word boundaries fall on and around the bytes the
	// string scan stops at.
	{`{"readings":[{"host_id":"r00-h000","at_s":1,"temp_c":2}]}`, true},
	{`{"readings":[{"host_id":"compute-rack00-node000","at_s":1,"temp_c":2}]}`, true},
	{`{"readings":[{"host_id":"compute<rack00>node&00","at_s":1,"temp_c":2}]}`, true},
	{`{"readings":[{"host_id":"compute-rack00-nodé","at_s":1,"temp_c":2}]}`, true},
	{"{\"readings\":[{\"host_id\":\"compute-\x01ack00\",\"at_s\":1}]}", false},
	{"{\"readings\":[{\"host_id\":\"compute-rack00-\xffode000\",\"at_s\":1}]}", false},
	{`{"readings":[{"host_id":"compute-rack00\"node000","at_s":1}]}`, false},
	{`{"readings":[{"host_id":"compute-rack00-node000"`, false},
	{`{"readings":[{"host_id":"compute-rack00-node0`, false},
	{"{\"readings\":[{\"host_id\":\"bad\xffutf8\",\"at_s\":1}]}", false},
	{`{"readings":[{"host_id":"esc\"aped","at_s":1}]}`, false},
	{`{"readings":[{"host_id":"uni\u0041","at_s":1}]}`, false},
	{"{\"readings\":[{\"host_id\":\"tab\there\"}]}", false},
	{`{"readings":[{"host_id":"a","host_id":"b"}]}`, false},
	{`{"readings":[{"host_id":"a","at_s":1,"at_s":2}]}`, false},
	{`{"readings":[],"readings":[{"host_id":"a"}]}`, false},
	{`{"predict":true,"predict":false}`, false},
	{`{"readings":[{"host_id":"a","rack":"r0"}]}`, false},
	{`{"readings":[{"Host_ID":"a"}]}`, false},
	{`{"readings":null}`, false},
	{`{"readings":[null]}`, false},
	{`{"readings":[{"host_id":null}]}`, false},
	{`{"readings":[{"host_id":7}]}`, false},
	{`{"readings":[{"host_id":"a","temp_c":"44"}]}`, false},
	{`{"readings":[{"host_id":"a","temp_c":1e999}]}`, false},
	{`{"readings":[{"host_id":"a","temp_c":01}]}`, false},
	{`{"predict":1}`, false},
	{`{"predict":"true"}`, false},
	{`{"predict":truefalse}`, false},
	{`{"predict":tru}`, false},
	{`{"predict":null}`, false},
	{`{"readings":[{"host_id":"a"},]}`, false},
	{`{"readings":[{"host_id":"a",}]}`, false},
	{`{"readings":[{"host_id":"a"}]}]`, false},
	{`{"readings":[{"host_id":"a"}`, false},
	{`{"readings":[{"host_id":"a`, false},
	{`[]`, false},
	{``, false},
}

var placeBodySeeds = []struct {
	body    string
	claimed bool
}{
	{`{"vms":[{"id":"vm-00000001","vcpus":2,"memory_gb":4,"tasks":[{"cpu_fraction":0.5503730869531263,"mem_gb":0.5},{"cpu_fraction":0.3,"mem_gb":0.5}]}]}`, true},
	{`{"vms":[{"count":3,"tasks":[],"memory_gb":1e0,"vcpus":-0,"id":"b"},{}]}`, true},
	{" {\t\"vms\" :\r\n[ { \"id\" : \"a b\" , \"tasks\" : [ { } , { \"mem_gb\" : -0 } ] } ]\n}\n ", true},
	{`{"vms":[]}`, true},
	{`{}`, true},
	{`{"vms":[{"id":"hôte-é","vcpus":1,"memory_gb":1}]}`, true},
	{`{"vms":[{"id":"","count":2,"vcpus":1,"memory_gb":1}]}`, true},
	{`{"vms":[{"id":"a","vcpus":2000000000,"memory_gb":1}]}`, true},
	{`{"vms":null}`, false},
	{`{"vms":[null]}`, false},
	{`{"vms":[{"id":null}]}`, false},
	{`{"vms":[{"id":"a","tasks":null}]}`, false},
	{`{"vms":[{"tasks":[null]}]}`, false},
	{`{"vms":[{"tasks":[{"cpu_fraction":null}]}]}`, false},
	{`{"vms":[],"vms":[{"id":"a"}]}`, false},
	{`{"vms":[{"id":"a","id":"b"}]}`, false},
	{`{"vms":[{"tasks":[],"tasks":[{"mem_gb":1}]}]}`, false},
	{`{"vms":[{"tasks":[{"mem_gb":1,"mem_gb":2}]}]}`, false},
	{`{"vms":[{"count":1,"count":2}]}`, false},
	{`{"vms":[{"id":"esc\"aped"}]}`, false},
	{`{"vms":[{"id":"uni\u0041"}]}`, false},
	{"{\"vms\":[{\"id\":\"bad\xffutf8\"}]}", false},
	{`{"VMS":[{"ID":"A"}]}`, false},
	{`{"vms":[{"Id":"a"}]}`, false},
	{`{"vms":[{"id":"a","rack":1}]}`, false},
	{`{"vms":[{"vcpus":1.0}]}`, false},
	{`{"vms":[{"vcpus":1e3}]}`, false},
	{`{"vms":[{"vcpus":01}]}`, false},
	{`{"vms":[{"vcpus":"1"}]}`, false},
	{`{"vms":[{"count":9223372036854775807}]}`, false},
	{`{"vms":[{"count":9223372036854775808}]}`, false},
	{`{"vms":[{"memory_gb":1e999}]}`, false},
	{`{"vms":[{"tasks":[{"cpu_fraction":"0.5"}]}]}`, false},
	{`{"vms":[{"id":"a"},]}`, false},
	{`{"vms":[]} x`, false},
	{`{"vms":[{"id":"a"`, false},
	{`[]`, false},
	{``, false},
}

var responseBodySeeds = []string{
	`{"stable_temps_c":[61.8,-0,1e21,1e-7]}`,
	` { "stable_temps_c" : [ ] } `,
	`{"stable_temps_c":null}`,
	`{"stable_temps_c":[1],"stable_temps_c":[2]}`,
	`{"stable_temps_c":[1e999]}`,
	`{}`,
	`{"accepted":2,"dropped":0}`,
	`{"accepted":64,"dropped":1,"rejected":2,"streamed":60,"deferred":1,"predictions":[{"host_id":"a","outcome":"streamed","predicted_temp_c":61.5,"uncertainty_c":0.25},{"host_id":"b","outcome":"deferred"},{"outcome":"novel","host_id":"c"}]}`,
	`{"predictions":[],"deferred":-0,"accepted":-3}`,
	`{"accepted":1.0}`,
	`{"accepted":1e2}`,
	`{"accepted":01}`,
	`{"accepted":9223372036854775808}`,
	`{"accepted":123456789012345678901234567890}`,
	`{"accepted":1,"accepted":2}`,
	`{"accepted":"1"}`,
	`{"predictions":[{"host_id":"a\n"}]}`,
	`{"accepted":1,"dropped":0,"predictions":[{"host_id":"compute-rack00-node000","outcome":"streamed","predicted_temp_c":61.5}]}`,
	`{"predictions":[{"host_id":"compute-\u0072ack00","outcome":"streamed"}]}`,
	"{\"predictions\":[{\"host_id\":\"compute-rack00\x1fnode\",\"outcome\":\"dropped\"}]}",
	`{"predictions":[{"host_id":"r00-h000","outcome":"streame`,
	`{"results":[{"vm_id":"vm-00004096","status":"placed","host_id":"r15-h28<>&","predicted_stable_c":61.8}],"placed":1,"queued":0,"rejected":0}`,
	`{"predictions":[{"host_id":"a","outcome":"streamed","outcome":"dropped"}]}`,
	`{"predictions":null}`,
	`{"results":[{"vm_id":"vm-1","status":"placed","host_id":"r0-h1","predicted_stable_c":61.8}],"placed":1,"queued":0,"rejected":0}`,
	`{"results":[{"vm_id":"a","status":"placed","host_id":"h","predicted_stable_c":0},{"vm_id":"b","status":"placed","predicted_stable_c":-0}],"placed":2,"queued":0,"rejected":0}`,
	`{"results":null,"placed":0,"queued":0,"rejected":0}`,
	`{"rejected":0,"queued":0,"placed":0,"results":[]}`,
	`{"results":[{"vm_id":"giant","status":"rejected","reject_code":"infeasible","reason":"fleet: shape 4096vCPU/4096GB can never fit host shape 16vCPU(×1.5)/64GB"}],"placed":0,"queued":0,"rejected":1}`,
	`{"results":[{"vm_id":"dup","status":"rejected","reject_code":"duplicate-id","reason":"fleet: vm \"dup\" already placed on \"r0-h0\""}],"rejected":1}`,
	`{"results":[{"vm_id":"q","status":"queued"},{"status":"migrated","vm_id":"m"}],"queued":1}`,
	`{"results":[],"results":[{"vm_id":"a"}]}`,
	`{"placed":1,"placed":2}`,
	`{"results":[{"vm_id":"a","status":"placed","status":"queued"}]}`,
	`{"results":[{"vm_id":null,"status":"queued"}]}`,
	`{"results":[null]}`,
	`{"results":[{"vm_id":"a","predicted_stable_c":"61.8"}]}`,
	`{"error":"no fleet control plane attached"}`,
	`{"accepted":1} x`,
	`{"accepted":1`,
	``,
}

// TestWireParsersClaim pins which bodies the typed parsers take — so the
// fast path cannot silently stop being one — and checks every seed against
// encoding/json.
func TestWireParsersClaim(t *testing.T) {
	for _, s := range stableBodySeeds {
		var req StableBatchRequest
		if got := req.ParseJSON([]byte(s.body)); got != s.claimed {
			t.Errorf("stable body %q: claimed = %v, want %v", s.body, got, s.claimed)
		} else if !got && (req.Rows != nil || req.flat != nil) {
			t.Errorf("stable body %q: refused but left %+v behind", s.body, req)
		}
		diffStableRequest(t, []byte(s.body))
	}
	for _, s := range ingestBodySeeds {
		var req FleetIngestRequest
		if got := req.ParseJSON([]byte(s.body)); got != s.claimed {
			t.Errorf("ingest body %q: claimed = %v, want %v", s.body, got, s.claimed)
		} else if !got && (req.Readings != nil || req.Predict) {
			t.Errorf("ingest body %q: refused but left %+v behind", s.body, req)
		}
		diffIngestRequest(t, []byte(s.body))
	}
	for _, s := range placeBodySeeds {
		var req FleetPlaceBatchRequest
		if got := req.ParseJSON([]byte(s.body)); got != s.claimed {
			t.Errorf("place body %q: claimed = %v, want %v", s.body, got, s.claimed)
		} else if !got && (req.VMs != nil || req.tasks != nil) {
			t.Errorf("place body %q: refused but left %+v behind", s.body, req)
		}
		diffPlaceRequest(t, []byte(s.body))
	}
	for _, body := range responseBodySeeds {
		diffResponses(t, []byte(body))
	}
}

// TestWireRowsViewOneFlatSlice: however the flat store moved while it grew,
// the rows end up as consecutive, capacity-clipped views of it.
func TestWireRowsViewOneFlatSlice(t *testing.T) {
	var sb strings.Builder
	sb.WriteString(`{"rows":[`)
	for i := 0; i < 300; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "[%d,%d.5,%d]", i, i, -i)
	}
	sb.WriteString(`]}`)
	var req StableBatchRequest
	if !req.ParseJSON([]byte(sb.String())) {
		t.Fatal("canonical body refused")
	}
	if len(req.Rows) != 300 || len(req.flat) != 900 {
		t.Fatalf("%d rows over %d values", len(req.Rows), len(req.flat))
	}
	for i, row := range req.Rows {
		if len(row) != 3 || cap(row) != 3 || &row[0] != &req.flat[3*i] {
			t.Fatalf("row %d (len %d cap %d) is not flat[%d:%d]", i, len(row), cap(row), 3*i, 3*i+3)
		}
		if row[0] != float64(i) || row[1] != float64(i)+0.5 || row[2] != float64(-i) {
			t.Fatalf("row %d = %v", i, row)
		}
	}
}

// wireGen draws the values the property tests feed both codecs.
type wireGen struct{ *rand.Rand }

var edgeFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.1, 61.8, 100, 1e6, -2.5e-3,
	1e20, 1e21, math.Nextafter(1e21, 0), math.Nextafter(1e21, math.Inf(1)), -1e21, 1e22, 1.5e300,
	1e-6, 1e-7, math.Nextafter(1e-6, 0), math.Nextafter(1e-6, 1), -1e-7, 1e-9, 1e-10, 1.25e-100,
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 2.2250738585072009e-308,
	math.MaxFloat64, -math.MaxFloat64,
	1 << 53, 1<<53 - 1, 1<<53 + 2, -(1 << 53), -(1<<53 - 1), 1 << 62, -(1 << 63), 123456789012345680000,
}

// float draws from the edge list, random bit patterns (any exponent,
// subnormals, NaN and ±Inf included), and everyday magnitudes.
func (g wireGen) float() float64 {
	switch g.Intn(4) {
	case 0:
		return edgeFloats[g.Intn(len(edgeFloats))]
	case 1:
		return math.Float64frombits(g.Uint64())
	case 2:
		return float64(g.Intn(4000) - 2000)
	default:
		return (g.Float64() - 0.2) * 100
	}
}

var idAlphabet = []string{
	"r", "0", "-", "h", "_", ".", " ", "~", "\x7f", "é", "温", "×", "\u2028", "\u2029", "\ufffd",
	"<", ">", "&", `"`, `\`, "/", "\n", "\t", "\x00", "\x1f", "\xff", "\xc3", "\xed\xa0\x80",
}

func (g wireGen) id() string {
	if g.Intn(3) > 0 {
		return fmt.Sprintf("r%d-h%03d", g.Intn(40), g.Intn(400))
	}
	var sb strings.Builder
	for n := g.Intn(6); n > 0; n-- {
		sb.WriteString(idAlphabet[g.Intn(len(idAlphabet))])
	}
	return sb.String()
}

func (g wireGen) floats() []float64 {
	if g.Intn(8) == 0 {
		return nil
	}
	fs := make([]float64, g.Intn(5))
	for i := range fs {
		fs[i] = g.float()
	}
	return fs
}

// message draws one of the six wire messages.
func (g wireGen) message() WireMessage {
	switch g.Intn(6) {
	case 0:
		if g.Intn(8) == 0 {
			return &StableBatchRequest{}
		}
		rows := make([][]float64, g.Intn(4))
		for i := range rows {
			rows[i] = g.floats()
		}
		return &StableBatchRequest{Rows: rows}
	case 1:
		return &StableBatchResponse{StableTempsC: g.floats()}
	case 2:
		req := &FleetIngestRequest{Predict: g.Intn(2) == 0}
		if g.Intn(8) > 0 {
			req.Readings = make([]FleetReading, g.Intn(4))
		}
		for i := range req.Readings {
			req.Readings[i] = FleetReading{HostID: g.id(), AtS: g.float(), TempC: g.float()}
			if g.Intn(2) == 0 {
				req.Readings[i].Util, req.Readings[i].MemFrac = g.float(), g.float()
			}
		}
		return req
	case 4:
		req := &FleetPlaceBatchRequest{}
		if g.Intn(8) > 0 {
			req.VMs = make([]FleetPlaceRequest, g.Intn(4))
		}
		for i := range req.VMs {
			vm := FleetPlaceRequest{ID: g.id(), VCPUs: g.Intn(5) - g.Intn(2)*g.Intn(1<<40), MemoryGB: g.float(), Count: g.Intn(3) * g.Intn(70000)}
			if g.Intn(3) > 0 { // nil, empty or populated
				vm.Tasks = make([]FleetTaskSpec, g.Intn(3))
				for j := range vm.Tasks {
					vm.Tasks[j] = FleetTaskSpec{CPUFraction: g.float(), MemGB: g.float()}
				}
			}
			req.VMs[i] = vm
		}
		return req
	case 5:
		resp := &FleetPlaceBatchResponse{Placed: g.Intn(70000), Queued: -g.Intn(3), Rejected: g.Intn(1 << 40)}
		if g.Intn(8) > 0 {
			resp.Results = make([]FleetPlaceResponse, g.Intn(4))
		}
		for i := range resp.Results {
			d := FleetPlaceResponse{VMID: g.id(), Status: placeWords[g.Intn(3)]}
			switch g.Intn(3) {
			case 0:
				d.HostID, d.PredictedStableC = g.id(), g.float()
			case 1:
				d.RejectCode, d.Reason = placeWords[3+g.Intn(len(placeWords)-3)], g.id()
			}
			resp.Results[i] = d
		}
		return resp
	default:
		resp := &FleetIngestResponse{Accepted: g.Intn(3) * g.Intn(70000), Dropped: g.Intn(3)}
		if g.Intn(2) == 0 {
			resp.Rejected, resp.Streamed, resp.Deferred = g.Intn(3), -g.Intn(3), g.Intn(1<<40)
		}
		if g.Intn(8) > 0 {
			resp.Predictions = make([]FleetIngestPrediction, g.Intn(4))
		}
		for i := range resp.Predictions {
			outcome := ingestOutcomes[g.Intn(len(ingestOutcomes))]
			if g.Intn(6) == 0 {
				outcome = g.id()
			}
			resp.Predictions[i] = FleetIngestPrediction{HostID: g.id(), Outcome: outcome}
			if g.Intn(2) == 0 {
				resp.Predictions[i].PredictedTempC, resp.Predictions[i].UncertaintyC = g.float(), g.float()
			}
		}
		return resp
	}
}

// TestWireEncodersMatchEncodingJSON: for random messages the typed encoder
// either emits json.Marshal's bytes or steps aside, and EncodeWire — typed
// plus fallback — agrees with json.Marshal on bytes and on refusing.
func TestWireEncodersMatchEncodingJSON(t *testing.T) {
	g := wireGen{rand.New(rand.NewSource(15))}
	prefix := []byte("prefix|")
	typed := 0
	for i := 0; i < 40000; i++ {
		msg := g.message()
		want, wantErr := json.Marshal(msg)
		out, ok := msg.AppendJSON(prefix[:len(prefix):len(prefix)])
		switch {
		case !bytes.HasPrefix(out, prefix):
			t.Fatalf("%+v: AppendJSON dropped what dst held: %q", msg, out)
		case ok && (wantErr != nil || !bytes.Equal(out[len(prefix):], want)):
			t.Fatalf("%+v:\n typed %s\n json  %s (err %v)", msg, out[len(prefix):], want, wantErr)
		case !ok && len(out) != len(prefix):
			t.Fatalf("%+v: refused but appended %q", msg, out[len(prefix):])
		case !ok && wantErr == nil && !bytes.ContainsRune(want, '\\'):
			// Refusals must have a reason: an unencodable float (Marshal
			// fails), or a string that json escaped — non-ASCII text such
			// as the "×" of an infeasible placement's reason is not one.
			t.Fatalf("%+v: refused a message json encodes plainly as %s", msg, want)
		}
		if ok {
			typed++
		}
		got, err := EncodeWire(nil, msg)
		if (err == nil) != (wantErr == nil) || (err == nil && !bytes.Equal(got, want)) {
			t.Fatalf("%+v:\n EncodeWire %s (err %v)\n json       %s (err %v)", msg, got, err, want, wantErr)
		}
		if err != nil {
			continue
		}
		// What one end encodes the other must decode to what json does.
		switch msg.(type) {
		case *StableBatchRequest:
			diffStableRequest(t, got)
		case *FleetIngestRequest:
			diffIngestRequest(t, got)
		case *FleetPlaceBatchRequest:
			diffPlaceRequest(t, got)
		default:
			diffResponses(t, got)
		}
	}
	if typed < 10000 {
		t.Fatalf("typed encoder took only %d of 40000 messages", typed)
	}
}

// TestWireFloatForms spells out the float cases the property test draws at
// random, against json.Marshal.
func TestWireFloatForms(t *testing.T) {
	for _, f := range edgeFloats {
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		e := wireEncoder{}
		e.float(f)
		if e.bad || string(e.b) != string(want) {
			t.Errorf("float %v: typed %q (bad %v), json %q", f, e.b, e.bad, want)
		}
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		e := wireEncoder{}
		if e.float(f); !e.bad {
			t.Errorf("float %v encoded as %q", f, e.b)
		}
	}
}

// wireFixture holds the messages of one scheduling round, one agent push
// and one placement storm, with full-precision floats, and their replies.
type wireFixture struct {
	stable StableBatchRequest
	temps  StableBatchResponse
	ingest FleetIngestRequest
	answer FleetIngestResponse
	place  FleetPlaceBatchRequest
	placed FleetPlaceBatchResponse
}

// wireFixtures builds a 128×16 stable batch, a 64-reading predictive ingest
// and a 16-VM placement drawn the way bench/e2e's sched_place draws one (1–2
// vCPUs, one task per vCPU), every VM placed.
func wireFixtures() wireFixture {
	g := rand.New(rand.NewSource(7))
	stable := StableBatchRequest{Rows: make([][]float64, 128)}
	temps := StableBatchResponse{StableTempsC: make([]float64, 128)}
	for i := range stable.Rows {
		stable.Rows[i] = make([]float64, 16)
		for j := range stable.Rows[i] {
			stable.Rows[i][j] = g.Float64() * 100
		}
		temps.StableTempsC[i] = 40 + g.Float64()*40
	}
	ingest := FleetIngestRequest{Readings: make([]FleetReading, 64), Predict: true}
	answer := FleetIngestResponse{Accepted: 64, Streamed: 64, Predictions: make([]FleetIngestPrediction, 64)}
	for i := range ingest.Readings {
		id := fmt.Sprintf("r%02d-h%03d", i/8, i)
		ingest.Readings[i] = FleetReading{HostID: id, AtS: 15 * g.Float64(), TempC: 40 + g.Float64()*40, Util: g.Float64(), MemFrac: g.Float64()}
		answer.Predictions[i] = FleetIngestPrediction{HostID: id, Outcome: "streamed", PredictedTempC: 40 + g.Float64()*40, UncertaintyC: g.Float64()}
	}
	place := FleetPlaceBatchRequest{VMs: make([]FleetPlaceRequest, 16)}
	placed := FleetPlaceBatchResponse{Results: make([]FleetPlaceResponse, 16), Placed: 16}
	for i := range place.VMs {
		vm := FleetPlaceRequest{ID: fmt.Sprintf("vm-%08d", 4096+i), VCPUs: 1 + g.Intn(2)}
		vm.MemoryGB = float64(2 * vm.VCPUs)
		for k := 0; k < vm.VCPUs; k++ {
			vm.Tasks = append(vm.Tasks, FleetTaskSpec{CPUFraction: 0.3 + 0.5*g.Float64(), MemGB: 0.5})
		}
		place.VMs[i] = vm
		placed.Results[i] = FleetPlaceResponse{VMID: vm.ID, Status: "placed", HostID: fmt.Sprintf("r%d-h%d", i%16, 4*i%32), PredictedStableC: 40 + g.Float64()*30}
	}
	return wireFixture{stable, temps, ingest, answer, place, placed}
}

func mustMarshal(t testing.TB, v any) []byte {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestWireCodecZeroAlloc pins the warm codecs the way TestWarmRoundZeroAlloc
// pins the round: parsing a 128×16 stable batch and encoding its reply, and
// encoding and parsing on the client's side of both routes, allocate
// nothing; parsing a 64-reading ingest allocates the 64 host_id strings the
// pipeline keeps, and parsing its reply none: the message already holds
// those host_ids from the last parse, as predictclient seeds them from the
// request. A 16-VM placement allocates its ids on the server, the ids and
// host ids on the client; statuses are interned.
func TestWireCodecZeroAlloc(t *testing.T) {
	fx := wireFixtures()
	stable, temps, ingest, answer, place, placed := fx.stable, fx.temps, fx.ingest, fx.answer, fx.place, fx.placed
	stableBody, tempsBody := mustMarshal(t, &stable), mustMarshal(t, &temps)
	ingestBody, answerBody := mustMarshal(t, &ingest), mustMarshal(t, &answer)
	placeBody, placedBody := mustMarshal(t, &place), mustMarshal(t, &placed)

	var (
		gotStable StableBatchRequest
		gotTemps  StableBatchResponse
		gotIngest FleetIngestRequest
		gotAnswer FleetIngestResponse
		gotPlace  FleetPlaceBatchRequest
		gotPlaced FleetPlaceBatchResponse
		buf       = make([]byte, 0, 1<<16)
	)
	for _, c := range []struct {
		name string
		max  float64
		run  func() bool
	}{
		{"stable request parse + response append", 0, func() bool {
			_, ok := temps.AppendJSON(buf[:0])
			return gotStable.ParseJSON(stableBody) && ok
		}},
		{"stable request append + response parse", 0, func() bool {
			_, ok := stable.AppendJSON(buf[:0])
			return gotTemps.ParseJSON(tempsBody) && ok
		}},
		{"ingest response append", 0, func() bool {
			_, ok := answer.AppendJSON(buf[:0])
			return ok
		}},
		{"ingest request append", 0, func() bool {
			_, ok := ingest.AppendJSON(buf[:0])
			return ok
		}},
		{"ingest request parse", 64, func() bool { return gotIngest.ParseJSON(ingestBody) }},
		{"ingest response parse", 0, func() bool { return gotAnswer.ParseJSON(answerBody) }},
		{"place request append + response append", 0, func() bool {
			_, ok := place.AppendJSON(buf[:0])
			_, ok2 := placed.AppendJSON(buf[:0])
			return ok && ok2
		}},
		{"place request parse", 16, func() bool { return gotPlace.ParseJSON(placeBody) }},
		{"place response parse", 32, func() bool { return gotPlaced.ParseJSON(placedBody) }},
	} {
		if !c.run() { // warm: grows the reused slices once
			t.Fatalf("%s: typed codec stepped aside on a canonical message", c.name)
		}
		if got := testing.AllocsPerRun(50, func() { c.run() }); got > c.max {
			t.Errorf("%s: %.0f allocs/op, want at most %.0f", c.name, got, c.max)
		}
	}
	if !sameStableRequest(&gotStable, &stable) || !sameFloats(gotTemps.StableTempsC, temps.StableTempsC) ||
		!sameIngestRequest(&gotIngest, &ingest) || !sameIngestResponse(&gotAnswer, &answer) ||
		!samePlaceRequest(&gotPlace, &place) || !samePlaceResponse(&gotPlaced, &placed) {
		t.Fatal("warm parses no longer round-trip the fixtures")
	}
}

// poison overwrites everything a finished request left in sc, as the next
// request drawing it from the pool would.
func (sc *wireScratch) poison() {
	nan := math.NaN()
	for i := range sc.body {
		sc.body[i] = 0xff
	}
	for i := range sc.resp {
		sc.resp[i] = 0xff
	}
	flat := sc.stable.flat[:cap(sc.stable.flat)]
	for i := range flat {
		flat[i] = nan
	}
	temps := sc.temps.StableTempsC[:cap(sc.temps.StableTempsC)]
	for i := range temps {
		temps[i] = nan
	}
	for i := range sc.ingest.Readings {
		sc.ingest.Readings[i] = FleetReading{HostID: "poison", AtS: nan, TempC: nan, Util: nan, MemFrac: nan}
	}
	for i := range sc.readings {
		sc.readings[i] = fleet.Reading{HostID: "poison", AtS: nan, TempC: nan, Util: nan, MemFrac: nan}
	}
	for i := range sc.results {
		sc.results[i] = fleet.IngestResult{Outcome: fleet.IngestRejected, Pred: fleet.Prediction{HostID: "poison", TempC: nan}}
	}
	for i := range sc.answer.Predictions {
		sc.answer.Predictions[i] = FleetIngestPrediction{HostID: "poison", Outcome: "poison", PredictedTempC: nan}
	}
	for i := range sc.place.VMs {
		sc.place.VMs[i] = FleetPlaceRequest{ID: "poison", VCPUs: -1, MemoryGB: nan, Count: -1}
	}
	tasks := sc.place.tasks[:cap(sc.place.tasks)]
	for i := range tasks {
		tasks[i] = FleetTaskSpec{CPUFraction: nan, MemGB: nan}
	}
	for i := range sc.placed.Results {
		sc.placed.Results[i] = FleetPlaceResponse{VMID: "poison", Status: "poison", HostID: "poison", PredictedStableC: nan}
	}
}

// pushSource is a telemetry source that emits nothing: every reading
// arrives through the ingest route, as from a fleet of push agents.
type pushSource struct{ nowS float64 }

func (s *pushSource) Name() string  { return "push" }
func (s *pushSource) NowS() float64 { return s.nowS }
func (s *pushSource) Advance(dtS float64, _ func(fleet.Reading) bool) error {
	s.nowS += dtS
	return nil
}

// serve runs one request through a typed route's body with the caller's
// scratch, the way the handler does with a pooled one.
func serve(route func(http.ResponseWriter, *http.Request, *wireScratch), body []byte, sc *wireScratch) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	route(rec, httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(body)), sc)
	return rec
}

// TestWireScratchNotRetained (run under -race in CI): each worker serves
// requests out of one scratch and poisons it after every request. The
// answers stay right and the fleet ends up holding exactly the readings
// that were sent — so PredictBatchInto and IngestBatch kept no reference to
// the rows, readings or body they were handed — and the race detector sees
// no access to a scratch from outside its request.
func TestWireScratchNotRetained(t *testing.T) {
	m, rec := testModel(t)
	cfg := fleet.DefaultConfig()
	cfg.MaxHosts = 64
	ctl, err := fleet.NewWithSource(cfg, &pushSource{}, fleet.SyntheticStablePredictor(75))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(m, WithWorkers(2), WithFleet(ctl))
	if err != nil {
		t.Fatal(err)
	}

	const workers, rounds, perPush = 4, 12, 8
	want, err := m.PredictFeatures(rec.Features)
	if err != nil {
		t.Fatal(err)
	}
	const at = 1.0
	sent := make([][]FleetReading, workers)
	marshal := func(v any) []byte { // t.Fatal is not for worker goroutines
		raw, err := json.Marshal(v)
		if err != nil {
			t.Error(err)
		}
		return raw
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sc := new(wireScratch)
			for r := 0; r < rounds; r++ {
				rows := make([][]float64, 3+r)
				for i := range rows {
					rows[i] = rec.Features
				}
				resp := serve(srv.serveStableBatch, marshal(StableBatchRequest{Rows: rows}), sc)
				var temps StableBatchResponse
				if err := json.Unmarshal(resp.Body.Bytes(), &temps); err != nil || resp.Code != http.StatusOK {
					t.Errorf("worker %d round %d: stable batch answered %d %q (%v)", w, r, resp.Code, resp.Body, err)
					return
				}
				sc.poison()
				for i, v := range temps.StableTempsC {
					if len(temps.StableTempsC) != len(rows) || math.Abs(v-want) > 1e-6 {
						t.Errorf("worker %d round %d row %d: %v, want %v (%d rows)", w, r, i, v, want, len(rows))
						return
					}
				}

				push := make([]FleetReading, perPush)
				for i := range push {
					push[i] = FleetReading{
						HostID: fmt.Sprintf("ext-w%d-h%d", w, i), AtS: at + float64(r),
						TempC: 40 + float64(w) + float64(i)/8 + float64(r)/64, Util: 0.25, MemFrac: 0.5,
					}
				}
				resp = serve(srv.serveFleetIngest, marshal(FleetIngestRequest{Readings: push, Predict: true}), sc)
				var answer FleetIngestResponse
				if err := json.Unmarshal(resp.Body.Bytes(), &answer); err != nil || resp.Code != http.StatusOK {
					t.Errorf("worker %d round %d: ingest answered %d %q (%v)", w, r, resp.Code, resp.Body, err)
					return
				}
				sc.poison()
				if answer.Accepted != perPush || len(answer.Predictions) != perPush {
					t.Errorf("worker %d round %d: ingest accounting %+v", w, r, answer)
					return
				}
				for i, p := range answer.Predictions {
					if p.HostID != push[i].HostID || math.IsNaN(p.PredictedTempC) {
						t.Errorf("worker %d round %d: prediction %d = %+v for host %s", w, r, i, p, push[i].HostID)
						return
					}
				}
				sent[w] = push
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	// The round drains what the pipeline kept; it must be what was sent.
	if _, err := ctl.RunRound(); err != nil {
		t.Fatal(err)
	}
	latest := snapshotOf(ctl).Latest
	for w := range sent {
		for _, rd := range sent[w] {
			if got, ok := latest[rd.HostID]; !ok || got != fleet.Reading(rd) {
				t.Errorf("fleet holds %+v (present %v) for %s, sent %+v", got, ok, rd.HostID, rd)
			}
		}
	}
	for id, rd := range latest {
		if id == "poison" || rd.HostID != id || math.IsNaN(rd.TempC) || math.IsNaN(rd.AtS) {
			t.Errorf("fleet holds a poisoned reading: %q → %+v", id, rd)
		}
	}
}

// TestPlaceScratchNotRetained: what PlaceBatch keeps past the call — a
// queued request whole, a placed VM's id and task profiles — is not built
// from the pooled scratch. One fleet is served out of a single scratch that
// is poisoned after every storm, its twin out of a fresh scratch each time.
// With a per-round cap parking part of every storm on the pending queue,
// the two answer the same bytes, their rounds drain the same queue to the
// same effect, the measured temperatures the placed VMs' tasks drive stay
// bit-identical, and every VM either placed is removable by its own id.
func TestPlaceScratchNotRetained(t *testing.T) {
	m, _ := testModel(t)
	newFleet := func() (*Server, *fleet.Controller) {
		cfg := fleet.DefaultConfig()
		cfg.Racks, cfg.HostsPerRack = 1, 4
		cfg.Seed = 26
		cfg.Admission.MaxPlacementsPerRound = 3
		ctl, err := fleet.New(cfg, fleet.SyntheticStablePredictor(75))
		if err != nil {
			t.Fatal(err)
		}
		srv, err := New(m, WithFleet(ctl))
		if err != nil {
			t.Fatal(err)
		}
		return srv, ctl
	}
	srv, ctl := newFleet()
	twin, twinCtl := newFleet()

	sc := new(wireScratch)
	var ids []string
	queued, drained, placed := 0, 0, 0
	for r := 0; r < 6; r++ {
		var req FleetPlaceBatchRequest
		for k := 0; k < 4; k++ {
			vm := FleetPlaceRequest{ID: fmt.Sprintf("s%d-vm%d", r, k), VCPUs: 1 + k%2, MemoryGB: 2}
			for j := 0; k < 3 && j < vm.VCPUs; j++ { // vm3 takes the default tasks
				vm.Tasks = append(vm.Tasks, FleetTaskSpec{CPUFraction: 0.25 + 0.1*float64(k+j), MemGB: 0.5})
			}
			if k == 0 {
				vm.Count = 2
				ids = append(ids, vm.ID+"-000", vm.ID+"-001")
			} else {
				ids = append(ids, vm.ID)
			}
			req.VMs = append(req.VMs, vm)
		}
		body := mustMarshal(t, &req)
		got := serve(srv.serveFleetPlaceBatch, body, sc)
		sc.poison()
		want := serve(twin.serveFleetPlaceBatch, body, new(wireScratch))
		if got.Code != http.StatusOK || got.Body.String() != want.Body.String() {
			t.Fatalf("storm %d: %d %s\n twin: %d %s", r, got.Code, got.Body, want.Code, want.Body)
		}
		var out FleetPlaceBatchResponse
		if err := json.Unmarshal(got.Body.Bytes(), &out); err != nil {
			t.Fatal(err)
		}
		queued, placed = queued+out.Queued, placed+out.Placed

		rep, err := ctl.RunRound()
		if err != nil {
			t.Fatal(err)
		}
		twinRep, err := twinCtl.RunRound()
		if err != nil {
			t.Fatal(err)
		}
		rep.Latency, rep.ControlLatency, twinRep.Latency, twinRep.ControlLatency = 0, 0, 0, 0
		if !reflect.DeepEqual(rep, twinRep) {
			t.Fatalf("round after storm %d:\n %+v\n twin %+v", r, rep, twinRep)
		}
		drained += rep.Placements
		if a, b := snapshotOf(ctl), snapshotOf(twinCtl); !reflect.DeepEqual(a.Latest, b.Latest) || !reflect.DeepEqual(a.Predicted, b.Predicted) {
			t.Fatalf("round after storm %d: the fleets measure or predict differently", r)
		}
	}
	if queued == 0 || drained == 0 || cap(sc.place.VMs) == 0 {
		t.Fatalf("queued %d, drained %d, scratch capacity %d: the test did not exercise the queue", queued, drained, cap(sc.place.VMs))
	}
	removed := 0
	for _, id := range ids {
		err, twinErr := ctl.RemoveVM(id), twinCtl.RemoveVM(id)
		if (err == nil) != (twinErr == nil) {
			t.Fatalf("remove %s: %v, twin %v", id, err, twinErr)
		}
		if err == nil {
			removed++
		}
	}
	if removed != placed+drained {
		t.Fatalf("removed %d VMs by id, %d were placed and %d drained", removed, placed, drained)
	}
}

// FuzzStableBatchBody: whatever the bytes, POST /v1/stable/batch decodes
// them to exactly what a json.Decoder does.
func FuzzStableBatchBody(f *testing.F) {
	for _, s := range stableBodySeeds {
		f.Add([]byte(s.body))
	}
	fx := wireFixtures()
	f.Add(mustMarshal(f, &fx.stable))
	f.Fuzz(func(t *testing.T, body []byte) { diffStableRequest(t, body) })
}

// FuzzIngestBody is FuzzStableBatchBody for POST /v1/fleet/ingest, and holds
// the handler to its host_id bound: a body that decodes to at most
// MaxBatchItems readings, one of them with a host_id longer than
// MaxHostIDBytes, is answered 422 whatever else it holds.
func FuzzIngestBody(f *testing.F) {
	for _, s := range ingestBodySeeds {
		f.Add([]byte(s.body))
	}
	fx := wireFixtures()
	f.Add(mustMarshal(f, &fx.ingest))
	long := strings.Repeat("h", MaxHostIDBytes+1)
	f.Add([]byte(`{"readings":[{"host_id":"r0-h0","at_s":1,"temp_c":44},{"host_id":"` + long + `","at_s":1,"temp_c":44}],"predict":true}`))
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
		diffIngestRequest(t, body)
		var req FleetIngestRequest
		overLong := DecodeWire(body, &req) == nil && len(req.Readings) <= MaxBatchItems &&
			slices.ContainsFunc(req.Readings, func(r FleetReading) bool { return len(r.HostID) > MaxHostIDBytes })
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/fleet/ingest", bytes.NewReader(body)))
		if overLong && rec.Code != http.StatusUnprocessableEntity {
			t.Fatalf("body %q: over-long host_id answered %d %q, want 422", body, rec.Code, rec.Body)
		}
	})
}

// FuzzWireResponseBody holds the client's side to the same oracle: all three
// response parsers see every body.
func FuzzWireResponseBody(f *testing.F) {
	for _, body := range responseBodySeeds {
		f.Add([]byte(body))
	}
	fx := wireFixtures()
	f.Add(mustMarshal(f, &fx.temps))
	f.Add(mustMarshal(f, &fx.answer))
	f.Add(mustMarshal(f, &fx.placed))
	f.Fuzz(func(t *testing.T, body []byte) { diffResponses(t, body) })
}

// BenchmarkPlaceBatchWire is one 16-VM placement exchange as sched_place
// makes it — the client encodes the request, the server parses it and
// encodes the decisions, the client parses them — through the typed codecs
// and through encoding/json.
func BenchmarkPlaceBatchWire(b *testing.B) {
	fx := wireFixtures()
	for _, c := range []struct {
		name string
		run  func(req, resp []byte, place *FleetPlaceBatchRequest, placed *FleetPlaceBatchResponse) ([]byte, []byte)
	}{
		{"typed", func(req, resp []byte, place *FleetPlaceBatchRequest, placed *FleetPlaceBatchResponse) ([]byte, []byte) {
			req, _ = EncodeWire(req[:0], &fx.place)
			if err := DecodeWire(req, place); err != nil {
				b.Fatal(err)
			}
			resp, _ = EncodeWire(resp[:0], &fx.placed)
			*placed = FleetPlaceBatchResponse{Results: make([]FleetPlaceResponse, 0, 16)}
			if err := DecodeWire(resp, placed); err != nil {
				b.Fatal(err)
			}
			return req, resp
		}},
		{"encoding-json", func(req, resp []byte, place *FleetPlaceBatchRequest, placed *FleetPlaceBatchResponse) ([]byte, []byte) {
			req, _ = json.Marshal(&fx.place)
			*place = FleetPlaceBatchRequest{}
			if err := json.NewDecoder(bytes.NewReader(req)).Decode(place); err != nil {
				b.Fatal(err)
			}
			buf := bytes.NewBuffer(resp[:0])
			if err := json.NewEncoder(buf).Encode(&fx.placed); err != nil {
				b.Fatal(err)
			}
			*placed = FleetPlaceBatchResponse{}
			if err := json.NewDecoder(buf).Decode(placed); err != nil {
				b.Fatal(err)
			}
			return req, buf.Bytes()
		}},
	} {
		b.Run(c.name, func(b *testing.B) {
			var (
				req, resp []byte
				place     FleetPlaceBatchRequest
				placed    FleetPlaceBatchResponse
			)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				req, resp = c.run(req, resp, &place, &placed)
			}
			if !samePlaceRequest(&place, &fx.place) || !samePlaceResponse(&placed, &fx.placed) {
				b.Fatal("the exchange does not round-trip the fixture")
			}
		})
	}
}

// heldOutRows is a 128×16 request shaped like the held-out rows bench/e2e's
// sched_stable sends: the host shape and the VM and task counts are short
// literals; the ambient, the demand means and the task-class fractions
// (k of 5–12 tasks) are full-precision doubles unless the fraction is short.
// 44% of its literals are 16–19 characters and nearly all the rest 1–6.
func heldOutRows() StableBatchRequest {
	g := rand.New(rand.NewSource(31))
	req := StableBatchRequest{Rows: make([][]float64, 128)}
	for i := range req.Rows {
		vms, tasks := 1+g.Intn(8), 5+g.Intn(8)
		row := []float64{2.4, 64, 4, 20 + 10*g.Float64(),
			float64(vms), float64(2 * vms), float64(4 * vms),
			float64(vms) * g.Float64(), float64(vms) * 4 * g.Float64(), float64(tasks),
			g.Float64(), 0.5 + 0.5*g.Float64()}
		for k := 0; k < 4; k++ {
			row = append(row, float64(1+g.Intn(tasks-1))/float64(tasks))
		}
		req.Rows[i] = row
	}
	return req
}

// BenchmarkWire is the codec's own rung: each body bench/e2e's three typed
// routes carry, encoded and parsed warm, in MB/s of body. Encoding is 0 B/op
// throughout, and so is parsing a stable request or an ingest answer;
// parsing a request allocates the ids the server keeps (64 host_ids, 16 VM
// ids), a placement answer the ids the caller keeps (16 + 16).
//
//	go test -run '^$' -bench '^BenchmarkWire$' -benchmem ./internal/predictserver
func BenchmarkWire(b *testing.B) {
	fx := wireFixtures()
	stable := heldOutRows()
	for _, c := range []struct {
		name     string
		msg, dst WireMessage
	}{
		{"stable-request", &stable, new(StableBatchRequest)},
		{"ingest-request", &fx.ingest, new(FleetIngestRequest)},
		{"ingest-response", &fx.answer, new(FleetIngestResponse)},
		{"place-request", &fx.place, new(FleetPlaceBatchRequest)},
		{"place-response", &fx.placed, new(FleetPlaceBatchResponse)},
	} {
		body := mustMarshal(b, c.msg)
		b.Run(c.name+"/encode", func(b *testing.B) {
			buf := make([]byte, 0, 2*len(body))
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for b.Loop() {
				if _, ok := c.msg.AppendJSON(buf[:0]); !ok {
					b.Fatal("typed encoder stepped aside")
				}
			}
		})
		b.Run(c.name+"/parse", func(b *testing.B) {
			c.dst.ParseJSON(body) // grows the reused slices once
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for b.Loop() {
				if !c.dst.ParseJSON(body) {
					b.Fatal("typed parser stepped aside")
				}
			}
		})
	}
}

// TestWireStringScanMatchesOracle pins the word loops of wireParser.str and
// wireEncoder.str at every boundary: strings of 0–24 bytes holding, at
// every offset, a byte either loop must stop at or a multi-byte rune, ended
// 0–9 bytes before the end of the body. The parser claims exactly the
// literals encoding/json reads back unchanged, with the cursor where a
// json.Decoder stops; the encoder writes exactly the strings json.Marshal
// writes unescaped, and those bytes.
func TestWireStringScanMatchesOracle(t *testing.T) {
	specials := []string{"", `"`, `\`, "\x00", "\x1f", "\x7f", " ", "<", ">", "&", "/",
		"é", "温", "\u2028", "\u2029", "\U0001F321", "\xff", "\xc3", "\xed\xa0\x80", "\x80"}
	tails := []string{"         ", "\"\\\x01\xff<&\" ]", "},{\"k\":1}"}
	for n := 0; n <= 24; n++ {
		for _, sp := range specials {
			for at := 0; at <= n; at++ {
				if sp == "" && at > 0 {
					break
				}
				s := strings.Repeat("r0-h", 7)[:at] + sp + strings.Repeat("x1_.", 7)[:n-at]
				checkWireString(t, s, tails)
			}
		}
	}
}

func checkWireString(t *testing.T, s string, tails []string) {
	t.Helper()
	want, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	e := wireEncoder{}
	e.str(s)
	plain := string(want) == `"`+s+`"`
	if e.bad == plain || !e.bad && string(e.b) != string(want) {
		t.Fatalf("encoder on %q: %q (bad %v), json.Marshal %s", s, e.b, e.bad, want)
	}
	for _, tail := range tails {
		for cut := 0; cut <= 9; cut++ {
			body := []byte(`"` + s + `"` + tail[:cut])
			dec := json.NewDecoder(bytes.NewReader(body))
			var v string
			err := dec.Decode(&v)
			end := int(dec.InputOffset())
			claim := err == nil && v == string(body[1:end-1])
			p := wireParser{b: body}
			got, ok := p.str()
			if ok != claim || ok && (string(got) != v || p.i != end) {
				t.Fatalf("parser on %q: %q, %v, cursor %d; json %q (err %v), cursor %d",
					body, got, ok, p.i, v, err, end)
			}
		}
	}
}

// TestIngestAnswerReusesSeededHostIDs: a reply whose host_ids are the ones
// predictclient seeded from the request parses without an allocation; a
// reply whose host_ids differ, or lack one, parses to encoding/json's value.
func TestIngestAnswerReusesSeededHostIDs(t *testing.T) {
	fx := wireFixtures()
	body := mustMarshal(t, &fx.answer)
	seed := func(ids func(k int) string) []FleetIngestPrediction {
		preds := make([]FleetIngestPrediction, len(fx.answer.Predictions))
		for k := range preds {
			preds[k].HostID = ids(k)
		}
		return preds[:0]
	}
	same := seed(func(k int) string { return fx.answer.Predictions[k].HostID })
	var got FleetIngestResponse
	if allocs := testing.AllocsPerRun(50, func() {
		got = FleetIngestResponse{Predictions: same}
		if !got.ParseJSON(body) {
			t.Fatal("typed parser stepped aside on the fixture")
		}
	}); allocs != 0 {
		t.Errorf("%.0f allocs parsing a reply whose host_ids were seeded", allocs)
	}
	if !sameIngestResponse(&got, &fx.answer) {
		t.Fatal("seeded parse does not round-trip the fixture")
	}

	answer := fx.answer
	answer.Predictions = slices.Clone(answer.Predictions)
	answer.Predictions[1].HostID = ""
	bodies := [][]byte{body, mustMarshal(t, &answer),
		[]byte(`{"accepted":2,"dropped":0,"predictions":[{"outcome":"deferred"},{"host_id":"r00-h001","outcome":"streamed"}]}`)}
	for _, ids := range []func(k int) string{
		func(k int) string { return "poison" },
		func(k int) string { return fx.answer.Predictions[k].HostID[:7] },
		func(k int) string { return fx.answer.Predictions[k].HostID + "0" },
		func(k int) string { return fx.answer.Predictions[(k+1)%len(fx.answer.Predictions)].HostID },
		func(k int) string { return fx.answer.Predictions[k].HostID },
	} {
		for _, b := range bodies {
			var want FleetIngestResponse
			if err := json.Unmarshal(b, &want); err != nil {
				t.Fatal(err)
			}
			got := FleetIngestResponse{Predictions: seed(ids)}
			if err := DecodeWire(b, &got); err != nil || !sameIngestResponse(&got, &want) {
				t.Fatalf("body %s seeded with %q:\n got  %+v (err %v)\n json %+v", b, ids(0), got, err, want)
			}
		}
	}
}
