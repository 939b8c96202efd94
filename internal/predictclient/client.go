// Package predictclient is the typed Go client for the vmtherm-predictd
// HTTP service (internal/predictserver). A monitoring agent embeds it to
// push online measurements and pull Δ_gap-ahead temperature predictions.
package predictclient

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"vmtherm/internal/fleet"
	"vmtherm/internal/predictserver"
	"vmtherm/internal/telemetry"
)

// Client talks to one predictd instance.
type Client struct {
	base string
	http *http.Client
}

// Option customizes the client.
type Option func(*Client)

// WithHTTPClient injects a custom *http.Client (timeouts, transport).
func WithHTTPClient(h *http.Client) Option {
	return func(c *Client) { c.http = h }
}

// New creates a client for the service at baseURL (e.g. "http://host:8080").
func New(baseURL string, opts ...Option) (*Client, error) {
	u, err := url.Parse(baseURL)
	if err != nil {
		return nil, fmt.Errorf("predictclient: bad base url: %w", err)
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return nil, fmt.Errorf("predictclient: unsupported scheme %q", u.Scheme)
	}
	c := &Client{
		base: strings.TrimRight(baseURL, "/"),
		http: &http.Client{Timeout: 10 * time.Second},
	}
	for _, o := range opts {
		o(c)
	}
	return c, nil
}

// APIError is a non-2xx response from the service.
type APIError struct {
	StatusCode int
	Message    string
}

// Error implements error.
func (e *APIError) Error() string {
	return fmt.Sprintf("predictclient: %d: %s", e.StatusCode, e.Message)
}

// Healthy probes /healthz.
func (c *Client) Healthy(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/healthz", nil)
	if err != nil {
		return err
	}
	var out map[string]string
	return c.do(req, &out)
}

// PredictStable asks for ψ_stable from a raw feature vector.
func (c *Client) PredictStable(ctx context.Context, features []float64) (float64, error) {
	var out predictserver.StableResponse
	err := c.postJSON(ctx, "/v1/predict/stable",
		predictserver.StableRequest{Features: features}, &out)
	if err != nil {
		return 0, err
	}
	return out.StableTempC, nil
}

// PredictStableBatch asks for ψ_stable for many feature rows in one
// request — the call a thermal-aware scheduler makes once per placement
// round instead of one HTTP round-trip per candidate host. Predictions come
// back in row order.
func (c *Client) PredictStableBatch(ctx context.Context, rows [][]float64) ([]float64, error) {
	out := predictserver.StableBatchResponse{StableTempsC: make([]float64, 0, len(rows))}
	err := c.postWire(ctx, "/v1/stable/batch",
		&predictserver.StableBatchRequest{Rows: rows}, &out)
	if err != nil {
		return nil, err
	}
	if len(out.StableTempsC) != len(rows) {
		return nil, fmt.Errorf("predictclient: %d predictions for %d rows", len(out.StableTempsC), len(rows))
	}
	return out.StableTempsC, nil
}

// ObserveBatch feeds one measurement into each of many sessions in one
// request. Results are item-for-item in request order; items whose session
// is gone carry a non-empty Error instead of failing the whole round.
func (c *Client) ObserveBatch(ctx context.Context, items []predictserver.ObserveBatchItem) ([]predictserver.ObserveBatchResult, error) {
	var out predictserver.ObserveBatchResponse
	err := c.postJSON(ctx, "/v1/session/batch/observe",
		predictserver.ObserveBatchRequest{Items: items}, &out)
	if err != nil {
		return nil, err
	}
	if len(out.Results) != len(items) {
		return nil, fmt.Errorf("predictclient: %d results for %d items", len(out.Results), len(items))
	}
	return out.Results, nil
}

// PredictBatch queries many sessions in one request. Results are
// item-for-item in request order; items whose session is gone carry a
// non-empty Error instead of failing the whole round.
func (c *Client) PredictBatch(ctx context.Context, items []predictserver.PredictBatchItem) ([]predictserver.PredictBatchResult, error) {
	var out predictserver.PredictBatchResponse
	err := c.postJSON(ctx, "/v1/session/batch/predict",
		predictserver.PredictBatchRequest{Items: items}, &out)
	if err != nil {
		return nil, err
	}
	if len(out.Results) != len(items) {
		return nil, fmt.Errorf("predictclient: %d results for %d items", len(out.Results), len(items))
	}
	return out.Results, nil
}

// FleetHotspots fetches the control plane's latest published hotspot map —
// the Δ_gap-ahead view a thermal-aware scheduler polls each round.
func (c *Client) FleetHotspots(ctx context.Context) (*predictserver.FleetHotspotsResponse, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/fleet/hotspots", nil)
	if err != nil {
		return nil, err
	}
	var out predictserver.FleetHotspotsResponse
	if err := c.do(req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// PlaceError is a typed placement rejection from the single-VM endpoint: it
// carries the fleet's RejectCode alongside the HTTP-level APIError it wraps,
// so callers can switch on Code instead of parsing flattened strings.
// errors.As finds both *PlaceError and (via Unwrap) *APIError.
type PlaceError struct {
	*APIError
	// Code is the typed rejection code (RejectNone if the server sent an
	// unknown string).
	Code fleet.RejectCode
	// Reason is the human-readable rejection reason.
	Reason string
}

// Error implements error.
func (e *PlaceError) Error() string {
	return fmt.Sprintf("predictclient: placement rejected (%s): %s", e.Code, e.Reason)
}

// Unwrap exposes the underlying HTTP error.
func (e *PlaceError) Unwrap() error { return e.APIError }

// FleetPlace asks the control plane to place one VM with the thermal-aware
// policy. A placed VM answers with status "placed", an admission-queued one
// with "queued" (HTTP 202); rejections come back as a *PlaceError carrying
// the typed RejectCode.
func (c *Client) FleetPlace(ctx context.Context, req predictserver.FleetPlaceRequest) (*predictserver.FleetPlaceResponse, error) {
	raw, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/fleet/place", bytes.NewReader(raw))
	if err != nil {
		return nil, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := c.http.Do(hreq)
	if err != nil {
		return nil, err
	}
	defer drainClose(resp.Body)
	if resp.StatusCode < 200 || resp.StatusCode >= 300 {
		var body struct {
			Error      string `json:"error"`
			RejectCode string `json:"reject_code"`
		}
		msg := resp.Status
		if err := json.NewDecoder(resp.Body).Decode(&body); err == nil && body.Error != "" {
			msg = body.Error
		}
		apiErr := &APIError{StatusCode: resp.StatusCode, Message: msg}
		if body.RejectCode != "" {
			return nil, &PlaceError{
				APIError: apiErr,
				Code:     fleet.ParseRejectCode(body.RejectCode),
				Reason:   msg,
			}
		}
		return nil, apiErr
	}
	var out predictserver.FleetPlaceResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, err
	}
	return &out, nil
}

// FleetPlaceBatch places a whole queue of VM requests in one
// admission-controlled call. The response carries one typed decision per
// requested VM in request order (Count-expanded replicas in suffix order);
// per-item rejections are data, not errors.
func (c *Client) FleetPlaceBatch(ctx context.Context, vms []predictserver.FleetPlaceRequest) (*predictserver.FleetPlaceBatchResponse, error) {
	out := &predictserver.FleetPlaceBatchResponse{Results: make([]predictserver.FleetPlaceResponse, 0, len(vms))}
	err := c.postWire(ctx, "/v1/fleet/place/batch", &predictserver.FleetPlaceBatchRequest{VMs: vms}, out)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// FleetIngest pushes a batch of telemetry readings into the control plane's
// bounded ingest pipeline — the call a real monitoring agent makes each
// sampling interval. The response reports how many readings the buffer
// accepted versus dropped (back-pressure, not an error).
func (c *Client) FleetIngest(ctx context.Context, readings []predictserver.FleetReading) (*predictserver.FleetIngestResponse, error) {
	return c.fleetIngest(ctx, &predictserver.FleetIngestRequest{Readings: readings})
}

// FleetIngestPredict is the synchronous-predictive ingest call: the same
// push as FleetIngest, but the response carries one Δ_gap-ahead prediction
// per reading in request order — arrival and prediction collapse into one
// round-trip. Requires a streaming-ingest server (predict against a
// round-based server answers 409).
func (c *Client) FleetIngestPredict(ctx context.Context, readings []predictserver.FleetReading) (*predictserver.FleetIngestResponse, error) {
	return c.fleetIngest(ctx, &predictserver.FleetIngestRequest{Readings: readings, Predict: true})
}

func (c *Client) fleetIngest(ctx context.Context, req *predictserver.FleetIngestRequest) (*predictserver.FleetIngestResponse, error) {
	out := new(predictserver.FleetIngestResponse)
	if req.Predict {
		out.Predictions = make([]predictserver.FleetIngestPrediction, 0, len(req.Readings))
	}
	if err := c.postWire(ctx, "/v1/fleet/ingest", req, out); err != nil {
		return nil, err
	}
	return out, nil
}

// Metrics fetches and parses the service's Prometheus exposition endpoint —
// the typed view of GET /metrics for Go consumers (dashboards and tests);
// scrapers consume the endpoint directly via telemetry.ScrapeSource.
func (c *Client) Metrics(ctx context.Context) ([]telemetry.MetricPoint, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer telemetry.CloseExposition(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return nil, &APIError{StatusCode: resp.StatusCode, Message: resp.Status}
	}
	return telemetry.ParseExposition(resp.Body)
}

// Session is a server-side dynamic prediction session.
type Session struct {
	c  *Client
	id string
	// StableTempC is the ψ_stable anchor the session was created with.
	StableTempC float64
}

// ID returns the session identifier.
func (s *Session) ID() string { return s.id }

// OpenSession creates a dynamic session. Exactly one of stableTempC (non-nil)
// or features must be provided; cfg fields left zero take the paper defaults.
func (c *Client) OpenSession(ctx context.Context, req predictserver.SessionRequest) (*Session, error) {
	var out predictserver.SessionResponse
	if err := c.postJSON(ctx, "/v1/session", req, &out); err != nil {
		return nil, err
	}
	return &Session{c: c, id: out.ID, StableTempC: out.StableTempC}, nil
}

// Observe feeds a measurement φ(t); returns the current calibration γ.
func (s *Session) Observe(ctx context.Context, t, tempC float64) (float64, error) {
	var out predictserver.ObserveResponse
	err := s.c.postJSON(ctx, "/v1/session/"+s.id+"/observe",
		predictserver.ObserveRequest{T: t, TempC: tempC}, &out)
	if err != nil {
		return 0, err
	}
	return out.Gamma, nil
}

// Predict returns ψ(t + Δ_gap) as of time t.
func (s *Session) Predict(ctx context.Context, t float64) (float64, error) {
	if math.IsNaN(t) || math.IsInf(t, 0) {
		return 0, fmt.Errorf("predictclient: predict at t = %v: not a finite time", t)
	}
	u := fmt.Sprintf("%s/v1/session/%s/predict?t=%s",
		s.c.base, s.id, url.QueryEscape(strconv.FormatFloat(t, 'g', -1, 64)))
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return 0, err
	}
	var out predictserver.PredictResponse
	if err := s.c.do(req, &out); err != nil {
		return 0, err
	}
	return out.TempC, nil
}

// Close deletes the session server-side.
func (s *Session) Close(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete,
		s.c.base+"/v1/session/"+s.id, nil)
	if err != nil {
		return err
	}
	var out map[string]string
	return s.c.do(req, &out)
}

func (c *Client) postJSON(ctx context.Context, path string, body, out any) error {
	raw, err := json.Marshal(body)
	if err != nil {
		return err
	}
	req, err := c.newPost(ctx, path, raw)
	if err != nil {
		return err
	}
	return c.do(req, out)
}

// postWire is postJSON for the three routes whose messages have typed codecs
// (predictserver.WireMessage): the same request and response bytes, without
// reflection. One pooled buffer serves both directions. The request is
// encoded there and sent as an exact-size copy — a transport may still be
// writing the body after Do returns, so the pooled bytes cannot be it — and
// the response is read back into it; nothing decoded references the buffer.
func (c *Client) postWire(ctx context.Context, path string, body, out predictserver.WireMessage) error {
	buf := bufPool.Get().(*bytes.Buffer)
	defer func() {
		if buf.Cap() <= maxPooledBufBytes { // one huge exchange must not pin its buffer
			bufPool.Put(buf)
		}
	}()
	buf.Reset()
	enc, err := predictserver.EncodeWire(buf.AvailableBuffer(), body)
	if err != nil {
		return err
	}
	buf.Write(enc) // keeps the capacity when encoding outgrew the buffer
	req, err := c.newPost(ctx, path, bytes.Clone(buf.Bytes()))
	if err != nil {
		return err
	}
	resp, err := c.send(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return err
	}
	return predictserver.DecodeWire(buf.Bytes(), out)
}

var bufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

const maxPooledBufBytes = 1 << 20

func (c *Client) newPost(ctx context.Context, path string, body []byte) (*http.Request, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	return req, nil
}

func (c *Client) do(req *http.Request, out any) error {
	resp, err := c.send(req)
	if err != nil {
		return err
	}
	defer drainClose(resp.Body)
	return json.NewDecoder(resp.Body).Decode(out)
}

// send issues req and returns the response when it is a 2xx, its body still
// unread; any other status comes back as an *APIError.
func (c *Client) send(req *http.Request) (*http.Response, error) {
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode >= 200 && resp.StatusCode < 300 {
		return resp, nil
	}
	defer drainClose(resp.Body)
	var apiErr struct {
		Error string `json:"error"`
	}
	msg := resp.Status
	if err := json.NewDecoder(resp.Body).Decode(&apiErr); err == nil && apiErr.Error != "" {
		msg = apiErr.Error
	}
	return nil, &APIError{StatusCode: resp.StatusCode, Message: msg}
}

// drainClose reads a response body to its end so the connection can be
// reused, then closes it.
func drainClose(body io.ReadCloser) {
	_, _ = io.Copy(io.Discard, body)
	_ = body.Close()
}
