package predictclient

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
)

// NewLocal creates a client whose requests are served by handler directly,
// in process, with no sockets — the transport the SLO capacity harness and
// CI use so profiling measures the serving path, not loopback networking
// flake. All Client methods work unchanged.
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
	rec := &responseRecorder{header: make(http.Header), status: http.StatusOK}
	t.h.ServeHTTP(rec, req)
	return &http.Response{
		StatusCode:    rec.status,
		Status:        fmt.Sprintf("%d %s", rec.status, http.StatusText(rec.status)),
		Proto:         req.Proto,
		ProtoMajor:    req.ProtoMajor,
		ProtoMinor:    req.ProtoMinor,
		Header:        rec.header,
		Body:          io.NopCloser(bytes.NewReader(rec.body.Bytes())),
		ContentLength: int64(rec.body.Len()),
		Request:       req,
	}, nil
}

// responseRecorder is a minimal in-memory http.ResponseWriter (the stdlib
// recorder lives in net/http/httptest, which does not belong in production
// imports).
type responseRecorder struct {
	header      http.Header
	body        bytes.Buffer
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
