package predictclient

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"strings"
	"testing"
)

// localHandler is a stand-in service: /healthz answers ok, anything else 404.
func localHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(`{"status":"ok"}`))
	})
	return mux
}

func TestNewLocalServesHandlerInProcess(t *testing.T) {
	c, err := NewLocal(localHandler())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Healthy(context.Background()); err != nil {
		t.Fatalf("in-process healthz: %v", err)
	}
	// A missing route must surface as a typed APIError, same as over a
	// socket.
	req, _ := http.NewRequest(http.MethodGet, c.base+"/no/such/route", nil)
	var out map[string]string
	err = c.do(req, &out)
	apiErr, ok := err.(*APIError)
	if !ok || apiErr.StatusCode != http.StatusNotFound {
		t.Fatalf("missing route returned %v, want *APIError 404", err)
	}
}

func TestNewLocalRejectsNilHandler(t *testing.T) {
	if _, err := NewLocal(nil); err == nil {
		t.Fatal("nil handler accepted")
	}
}

// TestLocalResponseBodyClose: a NewLocal response body closed half read
// gives its pooled buffer back once. A second Close is a no-op and a Read
// after Close reads nothing, whatever the buffer holds by then.
func TestLocalResponseBodyClose(t *testing.T) {
	c, err := NewLocal(localHandler())
	if err != nil {
		t.Fatal(err)
	}
	req, _ := http.NewRequest(http.MethodGet, c.base+"/healthz", nil)
	resp, err := c.http.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != "200 OK" || resp.ContentLength != int64(len(`{"status":"ok"}`)) {
		t.Errorf("status %q, Content-Length %d", resp.Status, resp.ContentLength)
	}
	head := make([]byte, 4)
	if n, err := resp.Body.Read(head); n != 4 || err != nil || string(head) != `{"st` {
		t.Fatalf("first read %q, %v", head[:n], err)
	}
	if err := resp.Body.Close(); err != nil {
		t.Fatal(err)
	}
	if err := resp.Body.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if n, err := resp.Body.Read(make([]byte, 8)); n != 0 || err == nil {
		t.Fatalf("Read after Close: %d bytes, %v", n, err)
	}
	// Returned twice, the buffer would come out of the pool twice.
	var out []*bytes.Buffer
	for i := 0; i < 4; i++ {
		b := getBuf()
		for _, o := range out {
			if o == b {
				t.Fatal("one buffer handed out twice: the body returned it to the pool twice")
			}
		}
		out = append(out, b)
	}
	for _, b := range out {
		putBuf(b)
	}
}

// closeCounter is a request body that counts its Close calls.
type closeCounter struct {
	io.Reader
	closes int
}

func (c *closeCounter) Close() error {
	c.closes++
	return nil
}

// TestLocalTransportClosesRequestBody: RoundTrip closes the request body
// exactly once, as the RoundTripper contract requires, whether or not the
// handler read it and whatever status it answered.
func TestLocalTransportClosesRequestBody(t *testing.T) {
	c, err := NewLocal(localHandler())
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"/healthz", "/no/such/route"} {
		body := &closeCounter{Reader: strings.NewReader(`{"x":1}`)}
		req, _ := http.NewRequest(http.MethodGet, c.base+path, body)
		resp, err := c.http.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		drainClose(resp.Body)
		if body.closes != 1 {
			t.Errorf("%s: request body closed %d times, want 1", path, body.closes)
		}
	}
}
