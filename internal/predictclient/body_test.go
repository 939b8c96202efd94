package predictclient

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"

	"vmtherm/internal/predictserver"
)

// roundTripFunc adapts a function to http.RoundTripper.
type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(req *http.Request) (*http.Response, error) { return f(req) }

// stableRows is a distinct n-row stable batch; stableReply answers it.
func stableRows(n int) [][]float64 {
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = []float64{float64(n), float64(i) + 0.25, -1.5}
	}
	return rows
}

func stableReply(req *http.Request, n int) *http.Response {
	temps := strings.TrimSuffix(strings.Repeat("61.5,", n), ",")
	return &http.Response{
		StatusCode: http.StatusOK,
		Header:     make(http.Header),
		Body:       io.NopCloser(strings.NewReader(`{"stable_temps_c":[` + temps + `]}`)),
		Request:    req,
	}
}

func marshalStable(t *testing.T, rows [][]float64) []byte {
	t.Helper()
	raw, err := json.Marshal(predictserver.StableBatchRequest{Rows: rows})
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestRequestBodyOutlivesRoundTrip: a transport may go on reading the
// request body after RoundTrip has returned, and after Do has. The bytes it
// reads are the request's, while other calls take buffers from the pool
// and put them back, before and during the late reads.
func TestRequestBodyOutlivesRoundTrip(t *testing.T) {
	const held = 8
	gate := make(chan struct{})
	got := make([][]byte, held)
	var wg sync.WaitGroup
	calls := 0
	late, err := New("http://late", WithHTTPClient(&http.Client{Transport: roundTripFunc(func(req *http.Request) (*http.Response, error) {
		i, body := calls, req.Body
		calls++
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer body.Close()
			<-gate
			var out bytes.Buffer
			p := make([]byte, 16)
			for {
				n, err := body.Read(p)
				out.Write(p[:n])
				if err != nil {
					break
				}
				runtime.Gosched()
			}
			got[i] = out.Bytes()
		}()
		return stableReply(req, i+1), nil
	})}))
	if err != nil {
		t.Fatal(err)
	}
	busy, err := NewLocal(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req predictserver.StableBatchRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		fmt.Fprintf(w, `{"stable_temps_c":[%s]}`, strings.TrimSuffix(strings.Repeat("1,", len(req.Rows)), ","))
	}))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	churn := func(rounds int) {
		for k := 0; k < rounds; k++ {
			if _, err := busy.PredictStableBatch(ctx, stableRows(40+k%7)); err != nil {
				t.Error(err)
				return
			}
		}
	}

	for i := 0; i < held; i++ {
		if _, err := late.PredictStableBatch(ctx, stableRows(i+1)); err != nil {
			t.Fatal(err)
		}
		churn(4)
	}
	close(gate)
	churn(64)
	wg.Wait()
	for i := range got {
		if want := marshalStable(t, stableRows(i+1)); !bytes.Equal(got[i], want) {
			t.Errorf("call %d: the transport read\n %s\nafter Do returned, want\n %s", i, got[i], want)
		}
	}
}

// TestGetBodyReplaysSameBytes: a transport that reads the body, closes it
// and opens it again through GetBody reads the same bytes twice, with the
// Content-Length set; once the call has returned and every body is closed,
// GetBody refuses rather than hand out a recycled buffer.
func TestGetBodyReplaysSameBytes(t *testing.T) {
	rows := stableRows(5)
	want := marshalStable(t, rows)
	var getBody func() (io.ReadCloser, error)
	c, err := New("http://replay", WithHTTPClient(&http.Client{Transport: roundTripFunc(func(req *http.Request) (*http.Response, error) {
		first, err := io.ReadAll(req.Body)
		if err != nil {
			return nil, err
		}
		req.Body.Close()
		again, err := req.GetBody()
		if err != nil {
			return nil, err
		}
		second, err := io.ReadAll(again)
		again.Close()
		if err != nil {
			return nil, err
		}
		if !bytes.Equal(first, want) || !bytes.Equal(second, want) || req.ContentLength != int64(len(want)) {
			t.Errorf("read %q then %q with Content-Length %d, want %q twice with %d", first, second, req.ContentLength, want, len(want))
		}
		getBody = req.GetBody
		return stableReply(req, len(rows)), nil
	})}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.PredictStableBatch(context.Background(), rows); err != nil {
		t.Fatal(err)
	}
	if body, err := getBody(); err == nil {
		body.Close()
		t.Fatal("GetBody opened a body after the call returned and released its buffer")
	}
}

// TestRedirectReplaysBody: over real HTTP a 307 makes net/http send the
// body again through GetBody; both sends carry the request's bytes with a
// Content-Length, not a chunked body.
func TestRedirectReplaysBody(t *testing.T) {
	type seen struct {
		path     string
		body     []byte
		length   int64
		encoding []string
	}
	var mu sync.Mutex
	var sends []seen
	rows := stableRows(3)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		mu.Lock()
		sends = append(sends, seen{r.URL.Path, body, r.ContentLength, r.TransferEncoding})
		first := len(sends) == 1
		mu.Unlock()
		if first {
			w.Header().Set("Location", "/v1/stable/batch/moved")
			w.WriteHeader(http.StatusTemporaryRedirect)
			return
		}
		_, _ = io.WriteString(w, `{"stable_temps_c":[1,2,3]}`)
	}))
	defer ts.Close()
	c, err := New(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.PredictStableBatch(context.Background(), rows); err != nil {
		t.Fatal(err)
	}
	want := marshalStable(t, rows)
	mu.Lock()
	defer mu.Unlock()
	if len(sends) != 2 || sends[1].path != "/v1/stable/batch/moved" {
		t.Fatalf("%d sends (%+v), want the request and its redirect", len(sends), sends)
	}
	for i, s := range sends {
		if !bytes.Equal(s.body, want) || s.length != int64(len(want)) || len(s.encoding) != 0 {
			t.Errorf("send %d to %s: %q, Content-Length %d, Transfer-Encoding %v; want %q, %d, none",
				i, s.path, s.body, s.length, s.encoding, want, len(want))
		}
	}
}
