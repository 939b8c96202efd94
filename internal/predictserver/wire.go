package predictserver

// Typed wire codecs for the three batch routes a scheduler or agent calls
// every round: POST /v1/stable/batch, /v1/fleet/ingest and
// /v1/fleet/place/batch. Reflection-driven encoding/json was three quarters
// of a scoring or ingest request and a quarter of a 16-VM placement, so
// their six messages get hand-written encoders and parsers for the SAME bytes:
//
//   - AppendJSON emits byte for byte what json.Marshal emits (field order,
//     omitempty, the float 'f'/'e' switch and exponent clean-up, "-0",
//     "null" for a nil slice) and reports false for what it does not cover —
//     a string that needs escaping, a non-finite float.
//   - ParseJSON claims a body only when it is the documented shape written
//     plainly: the message's own keys, each at most once, in any order, any
//     JSON whitespace; no string escapes, no null, nothing but whitespace
//     after the closing brace. It reports false for everything else,
//     malformed input included, and never an error of its own.
//
// EncodeWire and DecodeWire pair each with encoding/json on the same bytes,
// so for every input the result is what encoding/json gives; which path ran
// is decided by the input alone. The server and predictclient both go
// through them.
//
// Numbers are most of every body, and the codecs convert them themselves
// (wirefloat.go: parseNumber, appendFloat). strconv is left with integers on
// the way out and with the literals parseNumber's fast paths decline — one
// ParseFloat call, there.

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"
	"unicode/utf8"
)

// WireMessage is a message with a typed codec beside its encoding/json form.
type WireMessage interface {
	// AppendJSON appends the message's json.Marshal bytes to dst. It
	// reports false, returning dst unchanged, when the message holds a
	// value only encoding/json handles (or refuses).
	AppendJSON(dst []byte) ([]byte, bool)
	// ParseJSON fills the message from body, reusing the capacity of its
	// slices, when body is the documented shape written plainly. Otherwise
	// it reports false and leaves the message zero, as encoding/json
	// expects to find it.
	ParseJSON(body []byte) bool
}

// EncodeWire appends v's JSON to dst: typed when v's codec covers the
// value, json.Marshal otherwise — the same bytes either way.
func EncodeWire(dst []byte, v WireMessage) ([]byte, error) {
	if out, ok := v.AppendJSON(dst); ok {
		return out, nil
	}
	raw, err := json.Marshal(v)
	if err != nil {
		return dst, err
	}
	return append(dst, raw...), nil
}

// DecodeWire decodes the first JSON value of body into v: typed when v's
// parser claims the body, a json.Decoder over the same bytes otherwise — the
// same value, and the same error or none, either way.
func DecodeWire(body []byte, v WireMessage) error {
	if v.ParseJSON(body) {
		return nil
	}
	return json.NewDecoder(bytes.NewReader(body)).Decode(v)
}

// wireEncoder appends JSON tokens; bad latches the first value the typed
// encoders leave to encoding/json.
type wireEncoder struct {
	b   []byte
	bad bool
}

func (e *wireEncoder) raw(s string) { e.b = append(e.b, s...) }

func (e *wireEncoder) int(n int) { e.b = strconv.AppendInt(e.b, int64(n), 10) }

// float appends a finite f (appendFloat: encoding/json's bytes); NaN and ±Inf
// are encoding/json's to refuse.
func (e *wireEncoder) float(f float64) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		e.bad = true
		return
	}
	e.b = appendFloat(e.b, f)
}

// optInt and optFloat append an omitempty member: nothing for zero (either
// sign), otherwise key — comma and colon included — and the value.
func (e *wireEncoder) optInt(key string, n int) {
	if n != 0 {
		e.raw(key)
		e.int(n)
	}
}

func (e *wireEncoder) optFloat(key string, f float64) {
	if f != 0 {
		e.raw(key)
		e.float(f)
	}
}

// list appends a JSON array of n elements, each written by elem(i) — or
// "null" when null is set, as encoding/json writes a nil slice.
func (e *wireEncoder) list(n int, null bool, elem func(i int)) {
	if null {
		e.raw("null")
		return
	}
	e.b = append(e.b, '[')
	for i := 0; i < n; i++ {
		if i > 0 {
			e.b = append(e.b, ',')
		}
		elem(i)
	}
	e.b = append(e.b, ']')
}

// floats is list over fs without a call per number: arrays of floats are
// most of every body.
func (e *wireEncoder) floats(fs []float64) {
	if fs == nil {
		e.raw("null")
		return
	}
	e.b = append(e.b, '[')
	for i, f := range fs {
		if i > 0 {
			e.b = append(e.b, ',')
		}
		e.float(f)
	}
	e.b = append(e.b, ']')
}

// str appends s quoted. Anything encoding/json would escape or rewrite
// (quotes, backslash, control bytes, the HTML set <>&, U+2028/9, invalid
// UTF-8) is left to it; other non-ASCII text it writes as is, and so does str.
func (e *wireEncoder) str(s string) {
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c < 0x20 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
				e.bad = true
				return
			}
			i++
			continue
		}
		r, n := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && n == 1 || r == '\u2028' || r == '\u2029' {
			e.bad = true
			return
		}
		i += n
	}
	e.b = append(e.b, '"')
	e.b = append(e.b, s...)
	e.b = append(e.b, '"')
}

// optStr appends an omitempty string member: nothing for "".
func (e *wireEncoder) optStr(key, s string) {
	if s != "" {
		e.raw(key)
		e.str(s)
	}
}

// done returns the encoded bytes, or dst unchanged once bad latched.
func (e *wireEncoder) done(dst []byte) ([]byte, bool) {
	if e.bad {
		return dst, false
	}
	return e.b, true
}

// wireParser is a cursor over a request or response body. Every method
// skips leading JSON whitespace, consumes one token and reports whether it
// was there; nothing backtracks, so a parse is a single pass.
type wireParser struct {
	b []byte
	i int
}

// ws skips JSON whitespace.
func (p *wireParser) ws() {
	for p.i < len(p.b) && (p.b[p.i] == ' ' || p.b[p.i] == '\n' || p.b[p.i] == '\t' || p.b[p.i] == '\r') {
		p.i++
	}
}

// next consumes the byte c.
func (p *wireParser) next(c byte) bool {
	p.ws()
	if p.i < len(p.b) && p.b[p.i] == c {
		p.i++
		return true
	}
	return false
}

// more reports, after one element of an array or object closed by end,
// whether another follows; ok is false when neither ',' nor end is next.
func (p *wireParser) more(end byte) (more, ok bool) {
	if p.next(',') {
		return true, true
	}
	return false, p.next(end)
}

// end reports whether only whitespace remains.
func (p *wireParser) end() bool {
	p.ws()
	return p.i == len(p.b)
}

// str consumes a string literal and returns its bytes, which alias the
// body. Escapes, control bytes and invalid UTF-8 (which encoding/json
// rewrites to U+FFFD) are not claimed.
func (p *wireParser) str() ([]byte, bool) {
	if !p.next('"') {
		return nil, false
	}
	start, high := p.i, false
	for ; p.i < len(p.b); p.i++ {
		switch c := p.b[p.i]; {
		case c == '"':
			s := p.b[start:p.i]
			p.i++
			return s, !high || utf8.Valid(s)
		case c == '\\', c < 0x20:
			return nil, false
		case c >= utf8.RuneSelf:
			high = true
		}
	}
	return nil, false
}

// key consumes an object key and its colon.
func (p *wireParser) key() ([]byte, bool) {
	k, ok := p.str()
	return k, ok && p.next(':')
}

// float consumes a JSON number (parseNumber: the grammar, and the value
// strconv.ParseFloat gives); out-of-range literals ("1e999") are
// encoding/json's error to report.
func (p *wireParser) float() (float64, bool) {
	p.ws()
	f, n, ok := parseNumber(p.b[p.i:])
	p.i += n
	return f, ok
}

// integer consumes -?(0|[1-9][0-9]*) of at most 18 bytes — what the response
// counters and a placement's vcpus and count are; longer literals may
// overflow, and encoding/json refuses
// fractions and exponents for an int field, which fail at the caller's next
// token as "01" does.
func (p *wireParser) integer() (int, bool) {
	p.ws()
	start, n := p.i, 0
	neg := p.i < len(p.b) && p.b[p.i] == '-'
	if neg {
		p.i++
	}
	if p.i < len(p.b) && p.b[p.i] == '0' {
		p.i++
		return 0, true
	}
	digits := p.i
	for ; p.i < len(p.b) && p.b[p.i]-'0' <= 9; p.i++ {
		if p.i-start >= 18 {
			return 0, false
		}
		n = n*10 + int(p.b[p.i]-'0')
	}
	if neg {
		n = -n
	}
	return n, p.i > digits
}

// boolean consumes true or false.
func (p *wireParser) boolean() (v, ok bool) {
	p.ws()
	switch rest := p.b[p.i:]; {
	case bytes.HasPrefix(rest, []byte("true")):
		p.i += 4
		return true, true
	case bytes.HasPrefix(rest, []byte("false")):
		p.i += 5
		return false, true
	}
	return false, false
}

// array consumes an array, calling elem at the start of each element.
func (p *wireParser) array(elem func() bool) bool {
	if !p.next('[') {
		return false
	}
	for more, ok := !p.next(']'), true; more; {
		if !elem() {
			return false
		}
		if more, ok = p.more(']'); !ok {
			return false
		}
	}
	return true
}

// object consumes an object, calling field with each key once its colon is
// consumed. A field that is called twice for one key must refuse the second
// (seenKeys): encoding/json merges a duplicate into the first.
func (p *wireParser) object(field func(key []byte) bool) bool {
	if !p.next('{') {
		return false
	}
	for more := !p.next('}'); more; {
		k, ok := p.key()
		if !ok || !field(k) {
			return false
		}
		if more, ok = p.more('}'); !ok {
			return false
		}
	}
	return true
}

// floats consumes an array of numbers, appending them to dst.
func (p *wireParser) floats(dst []float64) ([]float64, bool) {
	ok := p.array(func() bool {
		f, ok := p.float()
		dst = append(dst, f)
		return ok
	})
	return dst, ok
}

// seenKeys is the set of an object's keys already parsed, one bit each.
type seenKeys uint8

// first marks bit and reports whether it was clear.
func (s *seenKeys) first(bit seenKeys) bool {
	dup := *s&bit != 0
	*s |= bit
	return !dup
}

// floatField and intField parse the value of a key seen for the first time.
func (p *wireParser) floatField(dst *float64, seen *seenKeys, bit seenKeys) (ok bool) {
	*dst, ok = p.float()
	return ok && seen.first(bit)
}

func (p *wireParser) intField(dst *int, seen *seenKeys, bit seenKeys) (ok bool) {
	*dst, ok = p.integer()
	return ok && seen.first(bit)
}

// sized returns s with length n, reallocated when nil or short. It is never
// nil — encoding/json leaves an absent array nil but makes an empty one
// empty, and an empty batch encodes as [] — and its elements are stale:
// callers append to sized(s, 0) or overwrite all n.
func sized[T any](s []T, n int) []T {
	if s == nil || cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// AppendJSON implements WireMessage.
func (r *StableBatchRequest) AppendJSON(dst []byte) ([]byte, bool) {
	e := wireEncoder{b: dst}
	e.raw(`{"rows":`)
	e.list(len(r.Rows), r.Rows == nil, func(i int) { e.floats(r.Rows[i]) })
	e.b = append(e.b, '}')
	return e.done(dst)
}

// ParseJSON implements WireMessage. Every number lands in one flat slice
// the request keeps across calls; Rows are views of it.
func (r *StableBatchRequest) ParseJSON(body []byte) bool {
	var rows [][]float64
	flat := sized(r.flat, 0)
	p := wireParser{b: body}
	ok := p.object(func(k []byte) bool {
		if string(k) != "rows" || rows != nil {
			return false
		}
		rows = sized(r.Rows, 0)
		return p.array(func() (ok bool) {
			start := len(flat)
			flat, ok = p.floats(flat)
			rows = append(rows, flat[start:])
			return ok
		})
	}) && p.end()
	if !ok {
		*r = StableBatchRequest{}
		return false
	}
	// flat may have moved while it grew; only the row lengths are good.
	off := 0
	for i := range rows {
		n := len(rows[i])
		rows[i] = flat[off : off+n : off+n]
		off += n
	}
	r.Rows, r.flat = rows, flat
	return true
}

// AppendJSON implements WireMessage.
func (r *StableBatchResponse) AppendJSON(dst []byte) ([]byte, bool) {
	e := wireEncoder{b: dst}
	e.raw(`{"stable_temps_c":`)
	e.floats(r.StableTempsC)
	e.b = append(e.b, '}')
	return e.done(dst)
}

// ParseJSON implements WireMessage.
func (r *StableBatchResponse) ParseJSON(body []byte) bool {
	var temps []float64
	p := wireParser{b: body}
	ok := p.object(func(k []byte) (ok bool) {
		if string(k) != "stable_temps_c" || temps != nil {
			return false
		}
		temps, ok = p.floats(sized(r.StableTempsC, 0))
		return ok
	}) && p.end()
	if !ok {
		temps = nil
	}
	r.StableTempsC = temps
	return ok
}

// AppendJSON implements WireMessage.
func (r *FleetIngestRequest) AppendJSON(dst []byte) ([]byte, bool) {
	e := wireEncoder{b: dst}
	e.raw(`{"readings":`)
	e.list(len(r.Readings), r.Readings == nil, func(i int) {
		rd := &r.Readings[i]
		e.raw(`{"host_id":`)
		e.str(rd.HostID)
		e.raw(`,"at_s":`)
		e.float(rd.AtS)
		e.raw(`,"temp_c":`)
		e.float(rd.TempC)
		e.optFloat(`,"util":`, rd.Util)
		e.optFloat(`,"mem_frac":`, rd.MemFrac)
		e.b = append(e.b, '}')
	})
	if r.Predict {
		e.raw(`,"predict":true`)
	}
	e.b = append(e.b, '}')
	return e.done(dst)
}

// ParseJSON implements WireMessage. Each host_id is the one allocation a
// reading costs: the pipeline keeps it past the request.
func (r *FleetIngestRequest) ParseJSON(body []byte) bool {
	var req FleetIngestRequest
	var seen seenKeys
	p := wireParser{b: body}
	ok := p.object(func(k []byte) (ok bool) {
		switch string(k) {
		case "readings":
			req.Readings = sized(r.Readings, 0)
			return seen.first(1) && p.array(func() bool {
				var rd FleetReading
				ok := rd.parse(&p)
				req.Readings = append(req.Readings, rd)
				return ok
			})
		case "predict":
			req.Predict, ok = p.boolean()
			return ok && seen.first(2)
		}
		return false
	}) && p.end()
	if !ok {
		req = FleetIngestRequest{}
	}
	*r = req
	return ok
}

func (rd *FleetReading) parse(p *wireParser) bool {
	var seen seenKeys
	return p.object(func(k []byte) bool {
		switch string(k) {
		case "host_id":
			id, ok := p.str()
			rd.HostID = string(id)
			return ok && seen.first(1)
		case "at_s":
			return p.floatField(&rd.AtS, &seen, 2)
		case "temp_c":
			return p.floatField(&rd.TempC, &seen, 4)
		case "util":
			return p.floatField(&rd.Util, &seen, 8)
		case "mem_frac":
			return p.floatField(&rd.MemFrac, &seen, 16)
		}
		return false
	})
}

// AppendJSON implements WireMessage.
func (r *FleetIngestResponse) AppendJSON(dst []byte) ([]byte, bool) {
	e := wireEncoder{b: dst}
	e.raw(`{"accepted":`)
	e.int(r.Accepted)
	e.raw(`,"dropped":`)
	e.int(r.Dropped)
	e.optInt(`,"rejected":`, r.Rejected)
	e.optInt(`,"streamed":`, r.Streamed)
	e.optInt(`,"deferred":`, r.Deferred)
	if len(r.Predictions) > 0 {
		e.raw(`,"predictions":`)
		e.list(len(r.Predictions), false, func(i int) {
			pr := &r.Predictions[i]
			e.raw(`{"host_id":`)
			e.str(pr.HostID)
			e.raw(`,"outcome":`)
			e.str(pr.Outcome)
			e.optFloat(`,"predicted_temp_c":`, pr.PredictedTempC)
			e.optFloat(`,"uncertainty_c":`, pr.UncertaintyC)
			e.b = append(e.b, '}')
		})
	}
	e.b = append(e.b, '}')
	return e.done(dst)
}

// ParseJSON implements WireMessage.
func (r *FleetIngestResponse) ParseJSON(body []byte) bool {
	var resp FleetIngestResponse
	var seen seenKeys
	p := wireParser{b: body}
	ok := p.object(func(k []byte) bool {
		switch string(k) {
		case "accepted":
			return p.intField(&resp.Accepted, &seen, 1)
		case "dropped":
			return p.intField(&resp.Dropped, &seen, 2)
		case "rejected":
			return p.intField(&resp.Rejected, &seen, 4)
		case "streamed":
			return p.intField(&resp.Streamed, &seen, 8)
		case "deferred":
			return p.intField(&resp.Deferred, &seen, 16)
		case "predictions":
			resp.Predictions = sized(r.Predictions, 0)
			return seen.first(32) && p.array(func() bool {
				var pr FleetIngestPrediction
				ok := pr.parse(&p)
				resp.Predictions = append(resp.Predictions, pr)
				return ok
			})
		}
		return false
	}) && p.end()
	if !ok {
		resp = FleetIngestResponse{}
	}
	*r = resp
	return ok
}

// ingestOutcomes and placeWords are the enumerated strings the server sends;
// the response parsers hand these out instead of allocating one per item.
var (
	ingestOutcomes = [...]string{"streamed", "deferred", "dropped", "buffered", "rejected"}
	placeWords     = [...]string{"placed", "queued", "rejected", "infeasible", "no-capacity",
		"no-headroom", "queue-full", "no-substrate", "duplicate-id"}
)

func intern(b []byte, known []string) string {
	for _, k := range known {
		if string(b) == k {
			return k
		}
	}
	return string(b)
}

func (pr *FleetIngestPrediction) parse(p *wireParser) bool {
	var seen seenKeys
	return p.object(func(k []byte) bool {
		switch string(k) {
		case "host_id":
			id, ok := p.str()
			pr.HostID = string(id)
			return ok && seen.first(1)
		case "outcome":
			out, ok := p.str()
			pr.Outcome = intern(out, ingestOutcomes[:])
			return ok && seen.first(2)
		case "predicted_temp_c":
			return p.floatField(&pr.PredictedTempC, &seen, 4)
		case "uncertainty_c":
			return p.floatField(&pr.UncertaintyC, &seen, 8)
		}
		return false
	})
}

// AppendJSON implements WireMessage.
func (r *FleetPlaceBatchRequest) AppendJSON(dst []byte) ([]byte, bool) {
	e := wireEncoder{b: dst}
	e.raw(`{"vms":`)
	e.list(len(r.VMs), r.VMs == nil, func(i int) {
		vm := &r.VMs[i]
		e.raw(`{"id":`)
		e.str(vm.ID)
		e.raw(`,"vcpus":`)
		e.int(vm.VCPUs)
		e.raw(`,"memory_gb":`)
		e.float(vm.MemoryGB)
		if len(vm.Tasks) > 0 {
			e.raw(`,"tasks":`)
			e.list(len(vm.Tasks), false, func(j int) {
				e.raw(`{"cpu_fraction":`)
				e.float(vm.Tasks[j].CPUFraction)
				e.raw(`,"mem_gb":`)
				e.float(vm.Tasks[j].MemGB)
				e.b = append(e.b, '}')
			})
		}
		e.optInt(`,"count":`, vm.Count)
		e.b = append(e.b, '}')
	})
	e.b = append(e.b, '}')
	return e.done(dst)
}

// ParseJSON implements WireMessage. Every task lands in one flat slice the
// request keeps across calls; each VM's Tasks is a view of it. The ids are
// the allocations: a placed or queued VM keeps its id.
func (r *FleetPlaceBatchRequest) ParseJSON(body []byte) bool {
	var vms []FleetPlaceRequest
	tasks := sized(r.tasks, 0)
	p := wireParser{b: body}
	ok := p.object(func(k []byte) bool {
		if string(k) != "vms" || vms != nil {
			return false
		}
		vms = sized(r.VMs, 0)
		return p.array(func() bool {
			var vm FleetPlaceRequest
			ok := vm.parse(&p, &tasks)
			vms = append(vms, vm)
			return ok
		})
	}) && p.end()
	if !ok {
		*r = FleetPlaceBatchRequest{}
		return false
	}
	// tasks may have moved while it grew; only the lengths are good.
	off := 0
	for i := range vms {
		if vms[i].Tasks != nil {
			n := len(vms[i].Tasks)
			vms[i].Tasks = tasks[off : off+n : off+n]
			off += n
		}
	}
	r.VMs, r.tasks = vms, tasks
	return true
}

// parse reads one VM, appending its tasks to *tasks. Tasks stays nil when
// the key is absent, as encoding/json leaves it.
func (vm *FleetPlaceRequest) parse(p *wireParser, tasks *[]FleetTaskSpec) bool {
	var seen seenKeys
	return p.object(func(k []byte) bool {
		switch string(k) {
		case "id":
			id, ok := p.str()
			vm.ID = string(id)
			return ok && seen.first(1)
		case "vcpus":
			return p.intField(&vm.VCPUs, &seen, 2)
		case "memory_gb":
			return p.floatField(&vm.MemoryGB, &seen, 4)
		case "count":
			return p.intField(&vm.Count, &seen, 8)
		case "tasks":
			start := len(*tasks)
			ok := seen.first(16) && p.array(func() bool {
				var ts FleetTaskSpec
				var seen seenKeys
				ok := p.object(func(k []byte) bool {
					switch string(k) {
					case "cpu_fraction":
						return p.floatField(&ts.CPUFraction, &seen, 1)
					case "mem_gb":
						return p.floatField(&ts.MemGB, &seen, 2)
					}
					return false
				})
				*tasks = append(*tasks, ts)
				return ok
			})
			vm.Tasks = (*tasks)[start:]
			return ok
		}
		return false
	})
}

// AppendJSON implements WireMessage.
func (r *FleetPlaceBatchResponse) AppendJSON(dst []byte) ([]byte, bool) {
	e := wireEncoder{b: dst}
	e.raw(`{"results":`)
	e.list(len(r.Results), r.Results == nil, func(i int) {
		d := &r.Results[i]
		e.raw(`{"vm_id":`)
		e.str(d.VMID)
		e.raw(`,"status":`)
		e.str(d.Status)
		e.optStr(`,"host_id":`, d.HostID)
		e.optFloat(`,"predicted_stable_c":`, d.PredictedStableC)
		e.optStr(`,"reject_code":`, d.RejectCode)
		e.optStr(`,"reason":`, d.Reason)
		e.b = append(e.b, '}')
	})
	e.raw(`,"placed":`)
	e.int(r.Placed)
	e.raw(`,"queued":`)
	e.int(r.Queued)
	e.raw(`,"rejected":`)
	e.int(r.Rejected)
	e.b = append(e.b, '}')
	return e.done(dst)
}

// ParseJSON implements WireMessage.
func (r *FleetPlaceBatchResponse) ParseJSON(body []byte) bool {
	var resp FleetPlaceBatchResponse
	var seen seenKeys
	p := wireParser{b: body}
	ok := p.object(func(k []byte) bool {
		switch string(k) {
		case "results":
			resp.Results = sized(r.Results, 0)
			return seen.first(1) && p.array(func() bool {
				var d FleetPlaceResponse
				ok := d.parse(&p)
				resp.Results = append(resp.Results, d)
				return ok
			})
		case "placed":
			return p.intField(&resp.Placed, &seen, 2)
		case "queued":
			return p.intField(&resp.Queued, &seen, 4)
		case "rejected":
			return p.intField(&resp.Rejected, &seen, 8)
		}
		return false
	}) && p.end()
	if !ok {
		resp = FleetPlaceBatchResponse{}
	}
	*r = resp
	return ok
}

func (d *FleetPlaceResponse) parse(p *wireParser) bool {
	var seen seenKeys
	text := func(dst *string, known []string, bit seenKeys) bool {
		s, ok := p.str()
		*dst = intern(s, known)
		return ok && seen.first(bit)
	}
	return p.object(func(k []byte) bool {
		switch string(k) {
		case "vm_id":
			return text(&d.VMID, nil, 1)
		case "status":
			return text(&d.Status, placeWords[:], 2)
		case "host_id":
			return text(&d.HostID, nil, 4)
		case "predicted_stable_c":
			return p.floatField(&d.PredictedStableC, &seen, 8)
		case "reject_code":
			return text(&d.RejectCode, placeWords[:], 16)
		case "reason":
			return text(&d.Reason, nil, 32)
		}
		return false
	})
}
