package predictserver

// Typed wire codecs for the two float-heavy batch routes, POST
// /v1/stable/batch and POST /v1/fleet/ingest. A profile of either route puts
// three quarters of a request in reflection-driven encoding/json and 15 %
// in the model, so their four messages get hand-written encoders and
// parsers for the SAME bytes:
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
// Numbers are most of either body, and the codecs convert them themselves
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

// floats appends a JSON array of floats, "null" for a nil slice.
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

// str appends s quoted. Anything encoding/json would escape (quotes,
// backslash, control bytes, the HTML set <>&) and all non-ASCII (U+2028/9,
// invalid UTF-8) is left to it.
func (e *wireEncoder) str(s string) {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c < 0x20, c >= utf8.RuneSelf, c == '"', c == '\\', c == '<', c == '>', c == '&':
			e.bad = true
			return
		}
	}
	e.b = append(e.b, '"')
	e.b = append(e.b, s...)
	e.b = append(e.b, '"')
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
// counters are; longer literals may overflow, and encoding/json refuses
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
	if r.Rows == nil {
		e.raw("null")
	} else {
		e.b = append(e.b, '[')
		for i, row := range r.Rows {
			if i > 0 {
				e.b = append(e.b, ',')
			}
			e.floats(row)
		}
		e.b = append(e.b, ']')
	}
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
	if r.Readings == nil {
		e.raw("null")
	} else {
		e.b = append(e.b, '[')
		for i := range r.Readings {
			rd := &r.Readings[i]
			if i > 0 {
				e.b = append(e.b, ',')
			}
			e.raw(`{"host_id":`)
			e.str(rd.HostID)
			e.raw(`,"at_s":`)
			e.float(rd.AtS)
			e.raw(`,"temp_c":`)
			e.float(rd.TempC)
			e.optFloat(`,"util":`, rd.Util)
			e.optFloat(`,"mem_frac":`, rd.MemFrac)
			e.b = append(e.b, '}')
		}
		e.b = append(e.b, ']')
	}
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
		e.raw(`,"predictions":[`)
		for i := range r.Predictions {
			pr := &r.Predictions[i]
			if i > 0 {
				e.b = append(e.b, ',')
			}
			e.raw(`{"host_id":`)
			e.str(pr.HostID)
			e.raw(`,"outcome":`)
			e.str(pr.Outcome)
			e.optFloat(`,"predicted_temp_c":`, pr.PredictedTempC)
			e.optFloat(`,"uncertainty_c":`, pr.UncertaintyC)
			e.b = append(e.b, '}')
		}
		e.b = append(e.b, ']')
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

// ingestOutcomes are the outcome strings the server sends; the response
// parser hands these out instead of allocating one per prediction.
var ingestOutcomes = [...]string{"streamed", "deferred", "dropped", "buffered", "rejected"}

func internOutcome(b []byte) string {
	for _, known := range ingestOutcomes {
		if string(b) == known {
			return known
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
			pr.Outcome = internOutcome(out)
			return ok && seen.first(2)
		case "predicted_temp_c":
			return p.floatField(&pr.PredictedTempC, &seen, 4)
		case "uncertainty_c":
			return p.floatField(&pr.UncertaintyC, &seen, 8)
		}
		return false
	})
}
