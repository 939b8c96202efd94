package predictserver

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"vmtherm/internal/fleet"
	"vmtherm/internal/vmm"
	"vmtherm/internal/workload"
)

// FleetHotspot is one entry of the served hotspot map.
type FleetHotspot struct {
	HostID         string  `json:"host_id"`
	PredictedTempC float64 `json:"predicted_temp_c"`
	MarginC        float64 `json:"margin_c"`
	UncertaintyC   float64 `json:"uncertainty_c"`
}

// FleetHotspotsResponse is the control plane's published snapshot: the
// Δ_gap-ahead hotspot map a thermal-aware scheduler polls each round.
type FleetHotspotsResponse struct {
	Round      int     `json:"round"`
	SimTimeS   float64 `json:"sim_time_s"`
	GapS       float64 `json:"gap_s"`
	ThresholdC float64 `json:"threshold_c"`
	// Streaming marks the hotspot list as the live incremental index
	// (updated per pushed reading; built at the first push) rather than the
	// last round's recompute.
	Streaming  bool           `json:"streaming,omitempty"`
	Hotspots   []FleetHotspot `json:"hotspots"`
	StaleHosts []string       `json:"stale_hosts,omitempty"`
}

// FleetTaskSpec is one task of a placement request.
type FleetTaskSpec struct {
	CPUFraction float64 `json:"cpu_fraction"`
	MemGB       float64 `json:"mem_gb"`
}

// FleetPlaceRequest asks the control plane to place a VM thermally. The
// same shape serves both endpoints: the batch endpoint additionally honours
// Count — one request expands into Count identical replicas with id
// suffixes — while the single-VM endpoint refuses Count > 1.
type FleetPlaceRequest struct {
	ID       string          `json:"id"`
	VCPUs    int             `json:"vcpus"`
	MemoryGB float64         `json:"memory_gb"`
	Tasks    []FleetTaskSpec `json:"tasks,omitempty"`
	// Count replicates the request (batch endpoint only); 0 means 1.
	Count int `json:"count,omitempty"`
}

// FleetPlaceResponse is one typed placement decision: status "placed"
// (host_id + predicted_stable_c set), "queued" (parked for the next round),
// or "rejected" (reject_code + reason set). Both endpoints serve it; the
// single-VM endpoint additionally maps rejections onto HTTP statuses.
type FleetPlaceResponse struct {
	VMID             string  `json:"vm_id"`
	Status           string  `json:"status"`
	HostID           string  `json:"host_id,omitempty"`
	PredictedStableC float64 `json:"predicted_stable_c,omitempty"`
	RejectCode       string  `json:"reject_code,omitempty"`
	Reason           string  `json:"reason,omitempty"`
}

// FleetPlaceBatchRequest carries one placement storm: every VM is
// validated, then the whole queue is placed in one admission-controlled
// batch decision.
type FleetPlaceBatchRequest struct {
	VMs   []FleetPlaceRequest `json:"vms"`
	tasks []FleetTaskSpec     // backs every VMs[i].Tasks after ParseJSON
}

// FleetPlaceBatchResponse returns one decision per requested VM, in request
// order (Count-expanded replicas in suffix order), plus status totals.
type FleetPlaceBatchResponse struct {
	Results  []FleetPlaceResponse `json:"results"`
	Placed   int                  `json:"placed"`
	Queued   int                  `json:"queued"`
	Rejected int                  `json:"rejected"`
}

// FleetReading is one telemetry reading pushed by an external monitoring
// agent.
type FleetReading struct {
	HostID  string  `json:"host_id"`
	AtS     float64 `json:"at_s"`
	TempC   float64 `json:"temp_c"`
	Util    float64 `json:"util,omitempty"`
	MemFrac float64 `json:"mem_frac,omitempty"`
}

// FleetIngestRequest carries one batch of readings into the fleet pipeline.
// With Predict set, the 200 carries one synchronous Δ_gap-ahead prediction
// per reading — the arrival→prediction round-trip collapses into the ingest
// request itself.
type FleetIngestRequest struct {
	Readings []FleetReading `json:"readings"`
	Predict  bool           `json:"predict,omitempty"`
}

// FleetIngestPrediction is one reading's synchronous prediction: either
// predicted values (outcome "streamed") or the reason none was produced —
// "deferred" (no session yet; the next round will create one) or "dropped"
// (pipeline back-pressure; the reading was lost).
type FleetIngestPrediction struct {
	HostID         string  `json:"host_id"`
	Outcome        string  `json:"outcome"`
	PredictedTempC float64 `json:"predicted_temp_c,omitempty"`
	UncertaintyC   float64 `json:"uncertainty_c,omitempty"`
}

// FleetIngestResponse reports per-batch ingest accounting: Dropped counts
// readings refused at the full bounded buffer (back-pressure the agent
// should see, not a silent loss); Streamed and Deferred count what the
// streaming path did on arrival; and Predictions — present only when the
// request asked — parallels the request's readings.
type FleetIngestResponse struct {
	Accepted int `json:"accepted"`
	Dropped  int `json:"dropped"`
	// Rejected counts readings refused as implausible (NaN, ±Inf, outside
	// the plausibility bounds) before they could touch any session.
	Rejected    int                     `json:"rejected,omitempty"`
	Streamed    int                     `json:"streamed,omitempty"`
	Deferred    int                     `json:"deferred,omitempty"`
	Predictions []FleetIngestPrediction `json:"predictions,omitempty"`
}

// WithFleet attaches a fleet control plane, enabling the /v1/fleet
// endpoints.
func WithFleet(f *fleet.Controller) Option {
	return func(s *Server) { s.fleet = f }
}

func (s *Server) handleFleetHotspots(w http.ResponseWriter, _ *http.Request) {
	// Scoped zero-copy borrow of the columns (no map is read, so none is
	// filled): the snapshot (and its slices) is read-only and only valid
	// inside the view, so everything serialized is copied into the
	// response before the borrow ends. Until anything has been pushed, the
	// list is the round's hot set in the published order, which the first
	// GET of a generation builds. After that it comes from the live
	// incremental index — it reflects a pushed reading immediately — while
	// the round metadata still describes the last published round.
	live, streaming := s.fleet.StreamHotspotsInto(nil)
	var resp FleetHotspotsResponse
	s.fleet.ViewColumns(func(snap *fleet.Snapshot) {
		resp = FleetHotspotsResponse{
			Round:      snap.Round,
			SimTimeS:   snap.SimTimeS,
			GapS:       snap.GapS,
			ThresholdC: snap.ThresholdC,
			Streaming:  streaming,
			StaleHosts: append([]string(nil), snap.StaleHosts...),
		}
		if !streaming {
			live = snap.Hotspots()
		}
		resp.Hotspots = make([]FleetHotspot, len(live))
		for i, h := range live {
			resp.Hotspots[i] = FleetHotspot(h)
		}
	})
	writeJSON(w, http.StatusOK, resp)
}

// rejectStatus maps typed rejection codes onto HTTP statuses for the
// single-VM endpoint: 422 for requests that can never succeed, 429 for
// back-pressure, 409 for everything the current fleet state refuses.
func rejectStatus(code fleet.RejectCode) int {
	switch code {
	case fleet.RejectInfeasible:
		return http.StatusUnprocessableEntity
	case fleet.RejectQueueFull:
		return http.StatusTooManyRequests
	default: // no-capacity, no-headroom, no-substrate, duplicate-id
		return http.StatusConflict
	}
}

// placeResponse converts a typed decision to its wire form.
func placeResponse(dec fleet.PlacementDecision) FleetPlaceResponse {
	return FleetPlaceResponse{
		VMID:             dec.VMID,
		Status:           dec.Status.String(),
		HostID:           dec.HostID,
		PredictedStableC: dec.PredictedStableC,
		RejectCode:       dec.Code.String(),
		Reason:           dec.Reason,
	}
}

// countPlace feeds the vmtherm_place_*_total counters and returns the
// tally it added.
func (s *Server) countPlace(decs []fleet.PlacementDecision) (placed, queued, rejected int) {
	placed, queued, rejected = fleet.TallyDecisions(decs)
	s.metrics.placePlaced.Add(int64(placed))
	s.metrics.placeQueued.Add(int64(queued))
	s.metrics.placeRejected.Add(int64(rejected))
	return placed, queued, rejected
}

// handleFleetPlace is the single-VM placement path — a thin adapter over
// the batch engine: one decision, with rejections mapped onto HTTP statuses
// and a structured {"error", "reject_code"} body.
func (s *Server) handleFleetPlace(w http.ResponseWriter, r *http.Request) {
	var req FleetPlaceRequest
	if !decodeBody(w, r, &req, maxItemBodyBytes) {
		return
	}
	if req.Count > 1 {
		writeError(w, http.StatusUnprocessableEntity,
			fmt.Errorf("count %d on the single-VM endpoint; use /v1/fleet/place/batch", req.Count))
		return
	}
	spec, err := req.toSpec(s.fleet.Config().HostShape)
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, err)
		return
	}
	decs, err := s.fleet.PlaceBatch([]workload.VMSpec{spec})
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	dec := decs[0]
	s.countPlace(decs)
	switch dec.Status {
	case fleet.Placed:
		writeJSON(w, http.StatusOK, placeResponse(dec))
	case fleet.Queued:
		writeJSON(w, http.StatusAccepted, placeResponse(dec))
	default:
		writeJSON(w, rejectStatus(dec.Code), map[string]string{
			"error":       dec.Reason,
			"reject_code": dec.Code.String(),
			"vm_id":       dec.VMID,
		})
	}
}

// serveFleetPlaceBatch places a whole queue in one admission-controlled
// call. The batch itself always answers 200 with per-item typed decisions
// (a storm is not an error); only malformed requests fail the whole batch,
// validated up front so nothing is placed before the rejection. It answers
// out of sc — all but the specs, which the fleet keeps: a queued one whole,
// a placed VM's id and task profiles.
func (s *Server) serveFleetPlaceBatch(w http.ResponseWriter, r *http.Request, sc *wireScratch) {
	if !sc.readBody(w, r) {
		return
	}
	req := &sc.place
	if err := DecodeWire(sc.body, req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	total, tasks := 0, 0
	for i := range req.VMs {
		n := max(req.VMs[i].Count, 1)
		// Checked per item, against the room left: summing attacker-chosen
		// counts first lets two of them wrap total past the limit check.
		if n > MaxBatchItems-total {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("batch of placements exceeds limit %d at vms[%d] (count %d after %d)", MaxBatchItems, i, n, total))
			return
		}
		total += n
		// Every replica copies the item's explicit tasks, so a short body
		// of {} tasks times a count would build millions of task specs.
		// The default one task per vCPU is bounded by the host shape.
		t := len(req.VMs[i].Tasks)
		if t > 0 && n > (MaxBatchItems-tasks)/t {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("batch of placements exceeds %d explicit tasks at vms[%d] (%d tasks × count %d after %d)", MaxBatchItems, i, t, n, tasks))
			return
		}
		tasks += t * n
	}
	// Every replica and every default task copies an item's id, so the
	// longest replica id is bounded before anything is expanded.
	for i, vm := range req.VMs {
		n := len(vm.ID)
		if vm.Count > 1 {
			n += len(fmt.Sprintf("-%03d", vm.Count-1))
		}
		if n > MaxHostIDBytes {
			writeError(w, http.StatusUnprocessableEntity,
				fmt.Errorf("vms[%d]: vm id of %d bytes with its replica suffix exceeds %d", i, n, MaxHostIDBytes))
			return
		}
	}
	shape := s.fleet.Config().HostShape
	specs := make([]workload.VMSpec, 0, total)
	for i := range req.VMs {
		item := req.VMs[i]
		n := max(item.Count, 1)
		if n > 1 && item.ID == "" {
			writeError(w, http.StatusUnprocessableEntity, fmt.Errorf("vms[%d]: placement request missing id", i))
			return
		}
		for k := 0; k < n; k++ {
			if item.Count > 1 {
				item.ID = fmt.Sprintf("%s-%03d", req.VMs[i].ID, k)
			}
			spec, err := item.toSpec(shape)
			if err != nil {
				writeError(w, http.StatusUnprocessableEntity, fmt.Errorf("vms[%d]: %w", i, err))
				return
			}
			specs = append(specs, spec)
		}
	}
	decs, err := s.fleet.PlaceBatch(specs)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	resp := &sc.placed
	*resp = FleetPlaceBatchResponse{Results: sized(resp.Results, len(decs))}
	resp.Placed, resp.Queued, resp.Rejected = s.countPlace(decs)
	s.metrics.placeBatchSize.Store(int64(len(specs)))
	for i := range decs {
		resp.Results[i] = placeResponse(decs[i])
	}
	sc.writeWire(w, resp)
}

// serveFleetIngest is the push path for real monitoring agents: readings
// enter the same bounded pipeline the simulator and scrape sources feed,
// and the next control round consumes them. Each accepted reading is also
// applied on arrival (observe → calibrate → hotspot index), and
// `predict: true` turns the request synchronous-predictive: the 200 answers
// with one Δ_gap-ahead prediction per reading. It answers out of sc alone;
// of everything in it the pipeline keeps only the readings' host_id strings.
func (s *Server) serveFleetIngest(w http.ResponseWriter, r *http.Request, sc *wireScratch) {
	if !sc.readBody(w, r) {
		return
	}
	req := &sc.ingest
	if err := DecodeWire(sc.body, req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if overBatchLimit(w, len(req.Readings), "readings") {
		return
	}
	// Validate the whole batch before ingesting anything: a mid-batch
	// rejection after partial ingest would make the agent retry readings
	// the loop already consumed.
	for i := range req.Readings {
		switch n := len(req.Readings[i].HostID); {
		case n == 0:
			writeError(w, http.StatusUnprocessableEntity, errors.New("reading missing host_id"))
			return
		case n > MaxHostIDBytes:
			writeError(w, http.StatusUnprocessableEntity, fmt.Errorf("reading host_id of %d bytes exceeds %d", n, MaxHostIDBytes))
			return
		}
	}
	readings := sized(sc.readings, len(req.Readings))
	for i := range req.Readings {
		readings[i] = fleet.Reading(req.Readings[i])
	}
	results := sized(sc.results, len(readings))
	sc.readings, sc.results = readings, results
	resp := &sc.answer
	*resp = FleetIngestResponse{Predictions: resp.Predictions[:0]}
	resp.Accepted = s.fleet.IngestBatch(readings, req.Predict, results)
	for i := range results {
		if results[i].Outcome == fleet.IngestRejected {
			resp.Rejected++
		}
	}
	resp.Dropped = len(readings) - resp.Accepted - resp.Rejected
	if req.Predict {
		resp.Predictions = sized(resp.Predictions, len(results))
	}
	for i := range results {
		outcome := ""
		switch results[i].Outcome {
		case fleet.IngestStreamed:
			resp.Streamed++
			outcome = "streamed"
		case fleet.IngestDeferred:
			resp.Deferred++
			outcome = "deferred"
		case fleet.IngestDropped:
			outcome = "dropped"
		case fleet.IngestRejected:
			outcome = "rejected"
		}
		if req.Predict {
			p := FleetIngestPrediction{HostID: readings[i].HostID, Outcome: outcome}
			if results[i].Outcome == fleet.IngestStreamed {
				p.PredictedTempC = results[i].Pred.TempC
				p.UncertaintyC = results[i].Pred.UncertaintyC
			}
			resp.Predictions[i] = p
		}
	}
	s.metrics.ingestItems.Add(int64(resp.Accepted))
	sc.writeWire(w, resp)
}

// toSpec converts the wire request to a workload spec. A request with no
// tasks gets one full-vCPU CPU-bound task per vCPU (a conservatively hot
// assumption for an unknown tenant) if a host of shape could hold it at
// all: PlaceBatch refuses other shapes unread, whatever vcpus they ask for.
func (r FleetPlaceRequest) toSpec(shape vmm.HostConfig) (workload.VMSpec, error) {
	if r.ID == "" {
		return workload.VMSpec{}, errors.New("placement request missing id")
	}
	if len(r.ID) > MaxHostIDBytes {
		return workload.VMSpec{}, fmt.Errorf("vm id of %d bytes exceeds %d", len(r.ID), MaxHostIDBytes)
	}
	cfg := vmm.VMConfig{VCPUs: r.VCPUs, MemoryGB: r.MemoryGB}
	if err := cfg.Validate(); err != nil {
		return workload.VMSpec{}, err
	}
	spec := workload.VMSpec{ID: r.ID, Config: cfg}
	tasks := r.Tasks
	if len(tasks) == 0 && fleet.ShapeError(shape, cfg) == nil {
		for i := 0; i < r.VCPUs; i++ {
			tasks = append(tasks, FleetTaskSpec{CPUFraction: 1, MemGB: r.MemoryGB / float64(r.VCPUs) / 2})
		}
	}
	for i, ts := range tasks {
		frac := ts.CPUFraction
		if frac < 0 || frac > 1 {
			return workload.VMSpec{}, errors.New("task cpu_fraction outside [0,1]")
		}
		spec.Tasks = append(spec.Tasks, workload.TaskSpec{
			Task: vmm.Task{
				ID:          spec.ID + "-t" + strconv.Itoa(i),
				Class:       vmm.CPUBound,
				CPUFraction: frac,
				MemGB:       ts.MemGB,
			},
			Profile: workload.Constant{Level: frac},
		})
	}
	return spec, nil
}
