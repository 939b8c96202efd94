package predictclient

import (
	"context"
	"net/http"
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
