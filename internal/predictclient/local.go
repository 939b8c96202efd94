package predictclient

import (
	"bytes"
	"fmt"
	"net/http"
	"strconv"
)

// NewLocal creates a client whose requests are served by handler directly,
// in process, with no sockets — the transport the SLO capacity harness and
// CI use so profiling measures the serving path, not loopback networking
// flake. All Client methods work unchanged.
//
// The transport closes each request body once the handler returns, as the
// RoundTripper contract requires, and records each response into a pooled
// buffer that the response body gives back at its first Close. A response
// body must be closed to recycle its buffer; every Client method closes
// the bodies it reads.
func NewLocal(handler http.Handler, opts ...Option) (*Client, error) {
	if handler == nil {
		return nil, fmt.Errorf("predictclient: nil handler")
	}
	local := &http.Client{Transport: localTransport{h: handler}}
	return New("http://in-process", append([]Option{WithHTTPClient(local)}, opts...)...)
}

// localTransport serves round trips by calling the handler synchronously.
type localTransport struct {
	h http.Handler
}

// RoundTrip implements http.RoundTripper.
func (t localTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Body != nil {
		defer req.Body.Close() // RoundTrip must always close the body
	}
	rec := &responseRecorder{header: make(http.Header), body: getBuf(), status: http.StatusOK}
	t.h.ServeHTTP(rec, req)
	return &http.Response{
		StatusCode:    rec.status,
		Status:        statusLine(rec.status),
		Proto:         req.Proto,
		ProtoMajor:    req.ProtoMajor,
		ProtoMinor:    req.ProtoMinor,
		Header:        rec.header,
		Body:          &sharedBody{s: share(rec.body)},
		ContentLength: int64(rec.body.Len()),
		Request:       req,
	}, nil
}

// statusLine is http.Response.Status ("200 OK"), built only for statuses
// other than the one nearly every exchange answers with.
func statusLine(code int) string {
	if code == http.StatusOK {
		return "200 OK"
	}
	return strconv.Itoa(code) + " " + http.StatusText(code)
}

// responseRecorder is a minimal in-memory http.ResponseWriter (the stdlib
// recorder lives in net/http/httptest, which does not belong in production
// imports).
type responseRecorder struct {
	header      http.Header
	body        *bytes.Buffer
	status      int
	wroteHeader bool
}

// Header implements http.ResponseWriter.
func (r *responseRecorder) Header() http.Header { return r.header }

// WriteHeader implements http.ResponseWriter.
func (r *responseRecorder) WriteHeader(status int) {
	if r.wroteHeader {
		return
	}
	r.status = status
	r.wroteHeader = true
}

// Write implements http.ResponseWriter.
func (r *responseRecorder) Write(p []byte) (int, error) {
	r.wroteHeader = true
	return r.body.Write(p)
}
