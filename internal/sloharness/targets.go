package sloharness

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"

	"vmtherm/internal/predictclient"
	"vmtherm/internal/predictserver"
)

// The serving endpoints the harness profiles. Target names double as the
// endpoint column of capacity reports, so they are the route paths.
const (
	EndpointStableBatch  = "/v1/stable/batch"
	EndpointSessionBatch = "/v1/session/batch/predict"
	EndpointIngest       = "/v1/fleet/ingest"
	EndpointHotspots     = "/v1/fleet/hotspots"
	EndpointPlaceBatch   = "/v1/fleet/place/batch"
	// EndpointFreshness is the synchronous-predictive ingest profile: the
	// same route as EndpointIngest with predict: true, where the measured
	// request latency IS the arrival→prediction-visible delay.
	EndpointFreshness = "/v1/fleet/ingest?predict=true"
)

// StableTarget profiles POST /v1/stable/batch with a fixed set of feature
// rows per request.
type StableTarget struct {
	Client *predictclient.Client
	Rows   [][]float64
}

// Name implements Target.
func (t *StableTarget) Name() string { return EndpointStableBatch }

// Fire implements Target.
func (t *StableTarget) Fire(ctx context.Context) error {
	_, err := t.Client.PredictStableBatch(ctx, t.Rows)
	return err
}

// SessionTarget profiles POST /v1/session/batch/predict: each request asks
// every one of its pre-opened dynamic sessions for ψ(t + Δ_gap) at an
// advancing t — a fleet round's prediction poll, served per session. Build
// it with OpenSessions; Close drops the sessions again.
type SessionTarget struct {
	client   *predictclient.Client
	sessions []*predictclient.Session

	tick atomic.Int64
}

// OpenSessions opens n dynamic sessions on the server behind client, spread
// over start and stable temperatures, and returns the target that polls them.
func OpenSessions(ctx context.Context, client *predictclient.Client, n int) (*SessionTarget, error) {
	t := &SessionTarget{client: client}
	for i := 0; i < n; i++ {
		stable := 50 + float64(i%30)
		sess, err := client.OpenSession(ctx, predictserver.SessionRequest{
			Phi0: 20 + float64(i%5), StableTempC: &stable,
		})
		if err != nil {
			t.Close(ctx)
			return nil, fmt.Errorf("sloharness: opening session %d: %w", i, err)
		}
		t.sessions = append(t.sessions, sess)
	}
	return t, nil
}

// Close deletes the target's sessions; a session the server has already
// lost is not worth failing a finished profile for.
func (t *SessionTarget) Close(ctx context.Context) {
	for _, s := range t.sessions {
		_ = s.Close(ctx)
	}
	t.sessions = nil
}

// Name implements Target.
func (t *SessionTarget) Name() string { return EndpointSessionBatch }

// Fire implements Target. A per-item error is a failed request: the batch
// came back 200 but a session did not predict.
func (t *SessionTarget) Fire(ctx context.Context) error {
	at := float64(t.tick.Add(1))
	items := make([]predictserver.PredictBatchItem, len(t.sessions))
	for i, s := range t.sessions {
		items[i] = predictserver.PredictBatchItem{ID: s.ID(), T: at}
	}
	results, err := t.client.PredictBatch(ctx, items)
	if err != nil {
		return err
	}
	if len(results) != len(items) {
		return fmt.Errorf("sloharness: %d results for %d sessions", len(results), len(items))
	}
	for i, r := range results {
		if r.Error != "" {
			return fmt.Errorf("sloharness: session %s: %s", items[i].ID, r.Error)
		}
	}
	return nil
}

// IngestTarget profiles POST /v1/fleet/ingest: each request pushes Batch
// readings cycling over Hosts with monotonically advancing timestamps, the
// traffic shape of a fleet of monitoring agents. Readings refused at the
// full bounded buffer are back-pressure, not errors — the endpoint's
// admission path is exactly what is being profiled.
type IngestTarget struct {
	Client *predictclient.Client
	Hosts  []string
	Batch  int
	// SampleS spaces consecutive timestamps (default 5 s).
	SampleS float64

	seq atomic.Int64
}

// Name implements Target.
func (t *IngestTarget) Name() string { return EndpointIngest }

// Fire implements Target.
func (t *IngestTarget) Fire(ctx context.Context) error {
	readings, err := nextReadings(&t.seq, t.Hosts, t.Batch, t.SampleS)
	if err != nil {
		return err
	}
	_, err = t.Client.FleetIngest(ctx, readings)
	return err
}

// nextReadings builds the next batch of the push profiles' traffic: readings
// cycling over hosts, timestamps advancing sampleS (default 5 s) per sweep.
func nextReadings(seq *atomic.Int64, hosts []string, batch int, sampleS float64) ([]predictserver.FleetReading, error) {
	if len(hosts) == 0 || batch <= 0 {
		return nil, errors.New("sloharness: a push target needs hosts and a positive batch")
	}
	if sampleS == 0 {
		sampleS = 5
	}
	readings := make([]predictserver.FleetReading, batch)
	for i := range readings {
		n := seq.Add(1)
		readings[i] = predictserver.FleetReading{
			HostID:  hosts[int(n)%len(hosts)],
			AtS:     float64(n) * sampleS / float64(len(hosts)),
			TempC:   45 + float64(n%20),
			Util:    0.3 + float64(n%7)*0.1,
			MemFrac: 0.4,
		}
	}
	return readings, nil
}

// FreshnessTarget profiles the streaming freshness SLO: each request is a
// synchronous-predictive ingest (predict: true) over Batch readings, so
// the harness's measured latency is exactly how long an arriving reading
// takes to become a served prediction. A reading that comes back without a
// streamed prediction (deferred or dropped) is a target error — the
// freshness path was not exercised — so the harness's error gate doubles
// as a "predictions actually flowed" gate. Requires a server whose Hosts
// already have sessions (prime the fleet first).
type FreshnessTarget struct {
	Client *predictclient.Client
	Hosts  []string
	Batch  int
	// SampleS spaces consecutive timestamps (default 5 s).
	SampleS float64

	seq atomic.Int64
}

// Name implements Target.
func (t *FreshnessTarget) Name() string { return EndpointFreshness }

// Fire implements Target.
func (t *FreshnessTarget) Fire(ctx context.Context) error {
	readings, err := nextReadings(&t.seq, t.Hosts, t.Batch, t.SampleS)
	if err != nil {
		return err
	}
	resp, err := t.Client.FleetIngestPredict(ctx, readings)
	if err != nil {
		return err
	}
	if resp.Streamed != len(readings) {
		return fmt.Errorf("sloharness: %d/%d readings returned fresh predictions (deferred %d, dropped %d)",
			resp.Streamed, len(readings), resp.Deferred, resp.Dropped)
	}
	return nil
}

// HotspotsTarget profiles GET /v1/fleet/hotspots — the poll a thermal-aware
// scheduler issues every round.
type HotspotsTarget struct {
	Client *predictclient.Client
}

// Name implements Target.
func (t *HotspotsTarget) Name() string { return EndpointHotspots }

// Fire implements Target.
func (t *HotspotsTarget) Fire(ctx context.Context) error {
	_, err := t.Client.FleetHotspots(ctx)
	return err
}

// PlaceTarget profiles the placement plane with uniquely-named VM requests.
// Batch > 1 drives POST /v1/fleet/place/batch; Batch == 1 drives the
// single-VM endpoint. Typed admission outcomes (queued, rejected) are
// served decisions and count as successes — under storm load the fleet
// running out of capacity is expected; only transport or protocol failures
// are errors, and a rejection that carries no reject_code is one of those.
type PlaceTarget struct {
	Client *predictclient.Client
	Batch  int
	// Prefix salts VM ids so repeated steps against one fleet don't
	// collide as duplicate-id.
	Prefix string

	seq atomic.Int64
	// Placed, Queued, Rejected tally the typed outcomes across the run.
	Placed, Queued, Rejected atomic.Int64
}

// Name implements Target.
func (t *PlaceTarget) Name() string { return EndpointPlaceBatch }

func (t *PlaceTarget) next() predictserver.FleetPlaceRequest {
	return predictserver.FleetPlaceRequest{
		ID: fmt.Sprintf("%s-%010d", t.Prefix, t.seq.Add(1)), VCPUs: 1, MemoryGB: 2,
		Tasks: []predictserver.FleetTaskSpec{{CPUFraction: 0.5, MemGB: 0.5}},
	}
}

// count tallies one served decision.
func (t *PlaceTarget) count(status, rejectCode string) error {
	switch status {
	case "placed":
		t.Placed.Add(1)
	case "queued":
		t.Queued.Add(1)
	default:
		if rejectCode == "" {
			return fmt.Errorf("sloharness: %s placement decision without a reject_code", status)
		}
		t.Rejected.Add(1)
	}
	return nil
}

// Fire implements Target.
func (t *PlaceTarget) Fire(ctx context.Context) error {
	if t.Batch == 1 {
		dec, err := t.Client.FleetPlace(ctx, t.next())
		if err != nil {
			var placeErr *predictclient.PlaceError
			if errors.As(err, &placeErr) {
				return t.count("rejected", placeErr.Code.String())
			}
			return err
		}
		return t.count(dec.Status, dec.RejectCode)
	}
	vms := make([]predictserver.FleetPlaceRequest, t.Batch)
	for i := range vms {
		vms[i] = t.next()
	}
	resp, err := t.Client.FleetPlaceBatch(ctx, vms)
	if err != nil {
		return err
	}
	for _, r := range resp.Results {
		if err := t.count(r.Status, r.RejectCode); err != nil {
			return err
		}
	}
	return nil
}
