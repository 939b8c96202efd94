package sloharness

import (
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"vmtherm/internal/predictclient"
	"vmtherm/internal/predictserver"
)

// TestPlaceTargetRequiresRejectCode: typed admission outcomes are served
// decisions, but a rejection that names no reject_code is a protocol error
// and fails the request — on the batch route and on the single-VM one.
func TestPlaceTargetRequiresRejectCode(t *testing.T) {
	rejectCode := "no-capacity"
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/fleet/place/batch", func(w http.ResponseWriter, _ *http.Request) {
		_ = json.NewEncoder(w).Encode(predictserver.FleetPlaceBatchResponse{Results: []predictserver.FleetPlaceResponse{
			{VMID: "a", Status: "placed", HostID: "r0-h0"},
			{VMID: "b", Status: "queued"},
			{VMID: "c", Status: "rejected", RejectCode: rejectCode},
		}})
	})
	mux.HandleFunc("/v1/fleet/place", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusConflict)
		_ = json.NewEncoder(w).Encode(map[string]string{"error": "full", "reject_code": rejectCode})
	})
	client, err := predictclient.NewLocal(mux)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, tc := range []struct {
		batch   int
		uncoded string
	}{
		{3, ""},        // batch route: the field is absent
		{1, "because"}, // single route: the client types only known codes
	} {
		rejectCode = "no-capacity"
		target := &PlaceTarget{Client: client, Batch: tc.batch, Prefix: "t"}
		if err := target.Fire(ctx); err != nil {
			t.Fatalf("batch %d: a coded rejection failed the request: %v", tc.batch, err)
		}
		if got := target.Rejected.Load(); got != 1 {
			t.Fatalf("batch %d: tallied %d rejections, want 1", tc.batch, got)
		}
		rejectCode = tc.uncoded
		if err := target.Fire(ctx); err == nil || !strings.Contains(err.Error(), "reject_code") {
			t.Fatalf("batch %d: code-less rejection: %v, want a reject_code error", tc.batch, err)
		}
	}
}
