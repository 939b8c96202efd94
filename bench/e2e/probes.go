package main

import (
	"bytes"
	"fmt"
	"math"
	"strconv"
	"time"

	"vmtherm/internal/anchorcache"
	"vmtherm/internal/checkpoint"
	"vmtherm/internal/core"
	"vmtherm/internal/dataset"
	"vmtherm/internal/engine"
	"vmtherm/internal/fleet"
	"vmtherm/internal/predictserver"
	"vmtherm/internal/svm"
	"vmtherm/internal/telemetry"
	"vmtherm/internal/vmm"
	"vmtherm/internal/workload"
)

// Layer probes: in the traced phase the inputs an op carried are replayed
// straight into the next layer down, on a twin of that layer kept in
// lock-step with the fixture, so a layer's self time is its parent's span
// minus the probe's — without a line of instrumentation in the product.

// noteRound files what a round's public report says about itself.
func noteRound(h *harness, rep fleet.RoundReport) {
	t, b := h.tr, h.ph.cur
	t.note("fleet.round.source", b, rep.Latency-rep.ControlLatency)
	t.note("fleet.round.control", b, rep.ControlLatency)
	t.add("rounds", 1)
	t.add("engine.reanchored", float64(rep.Reanchored))
	t.add("anchor.hits", float64(rep.AnchorHits))
	t.add("anchor.misses", float64(rep.AnchorMisses))
	t.add("anchor.fanout", float64(rep.AnchorFanout))
	t.add("fleet.round.hotspots", float64(rep.Hotspots))
	t.add("fleet.round.applied_moves", float64(rep.AppliedMoves))
	t.add("fleet.round.stale_hosts", float64(rep.StaleHosts))
	t.add("fleet.round.drained", float64(rep.TelemetryDrained))
	t.add("fleet.stream.hot_drift", float64(rep.StreamHotDrift))
	t.count("engine.sessions_live", float64(rep.SessionsLive))
	t.count("anchorcache.evicted", float64(rep.AnchorEvictedTotal))
}

// modelProbes replays feature rows into core.PredictBatchInto and, scaled,
// into the bare SVM kernel below it. StablePredictor does not expose its
// SVM, so the twin is refit from the same records at the predictor's
// winning grid point — a deterministic fit, checked to predict the same.
type modelProbes struct {
	model  *core.StablePredictor
	svm    *svm.Model
	scaler *svm.Scaler
	train  [][]float64
	rows   [][]float64
	flat   []float64
	out    []float64
	cs     core.PredictScratch
	ss     svm.BatchScratch
}

func newModelProbes(e *env) (*modelProbes, error) {
	cfg := core.FastStableConfig()
	x, y := dataset.FeaturesAndTargets(e.train)
	scaler, err := svm.NewScaler(cfg.ScaleLower, cfg.ScaleUpper)
	if err != nil {
		return nil, err
	}
	if err := scaler.Fit(x); err != nil {
		return nil, err
	}
	xs, err := scaler.TransformAll(x)
	if err != nil {
		return nil, err
	}
	best := e.model.Best()
	kernel := cfg.Grid.Kernel
	kernel.Gamma = best.Gamma
	m, err := svm.Train(xs, y, svm.TrainParams{
		Kernel: kernel, C: best.C, Epsilon: best.Epsilon,
		MaxIter: cfg.Grid.MaxIter, Selection: cfg.Grid.Selection,
	})
	if err != nil {
		return nil, fmt.Errorf("refitting the svm twin: %w", err)
	}
	p := &modelProbes{model: e.model, svm: m, scaler: scaler, train: x}
	want, err := e.model.PredictBatch(x)
	if err != nil {
		return nil, err
	}
	got, err := m.PredictBatch(xs)
	if err != nil {
		return nil, err
	}
	for i := range want {
		if math.Abs(want[i]-got[i]) > 1e-9 {
			return nil, fmt.Errorf("svm twin predicts %v where the model predicts %v: not the layer under it", got[i], want[i])
		}
	}
	return p, nil
}

// pool returns n rows cycled from the training features: the batch a round's
// anchor misses or a placement's candidates would send through the model.
func (p *modelProbes) pool(n int) [][]float64 {
	p.rows = p.rows[:0]
	for i := 0; i < n; i++ {
		p.rows = append(p.rows, p.train[i%len(p.train)])
	}
	return p.rows
}

func (p *modelProbes) run(h *harness, rows [][]float64) {
	n, dim := len(rows), p.scaler.Dim()
	if cap(p.out) < n {
		p.out, p.flat = make([]float64, n), make([]float64, n*dim)
	}
	out, flat := p.out[:n], p.flat[:n*dim]
	h.probe("core.predict_batch", func() int { _ = p.model.PredictBatchInto(rows, out, &p.cs); return n })
	for i, row := range rows {
		_ = p.scaler.TransformInto(row, flat[i*dim:(i+1)*dim])
	}
	h.probe("svm.predict_batch", func() int { _ = p.svm.PredictBatchInto(flat, out, &p.ss); return n })
}

// roundProbes replays every traced round into a twin session engine and
// sends a batch the size of the round's anchor fan-out through the model.
type roundProbes struct {
	eng     *engine.Engine
	latest  map[string]telemetry.Reading
	anchors map[string]float64
	preds   []engine.Prediction
	model   *modelProbes
}

func newRoundProbes(e *env, ctl *fleet.Controller) (*roundProbes, error) {
	eng, err := engine.New(ctl.Engine().Config())
	if err != nil {
		return nil, err
	}
	model, err := newModelProbes(e)
	if err != nil {
		return nil, err
	}
	return &roundProbes{eng: eng, model: model,
		latest: make(map[string]telemetry.Reading), anchors: make(map[string]float64)}, nil
}

func (p *roundProbes) afterRound(h *harness, ctl *fleet.Controller, hosts []string, rep fleet.RoundReport) {
	noteRound(h, rep)
	h.tr.note("fleet.run_round", h.ph.cur, time.Duration(h.ph.opNs[len(h.ph.opNs)-1]))
	h.probe("fleet.view_snapshot", func() int { ctl.ViewSnapshot(func(*fleet.Snapshot) {}); return 1 })
	// The twin sees what the controller's engine saw: this round's newest
	// reading per host and the ψ_stable each session is anchored to. Round
	// may delete from latest, so it gets a copy.
	var now float64
	ctl.ViewSnapshot(func(s *fleet.Snapshot) {
		now = s.SimTimeS
		clear(p.latest)
		for id, rd := range s.Latest {
			p.latest[id] = rd
		}
	})
	clear(p.anchors)
	for _, id := range hosts {
		if v, err := ctl.Engine().Stable(id); err == nil {
			p.anchors[id] = v
		}
	}
	h.probe("engine.round", func() int {
		p.preds, _ = p.eng.Round(p.preds[:0], now, hosts, p.latest, p.anchors)
		return len(hosts)
	})
	if rep.AnchorFanout > 0 {
		p.model.run(h, p.model.pool(rep.AnchorFanout))
	}
}

// traceProbes are round_trace4k's own: a twin replay source advanced with a
// no-op sink, and a twin anchor cache asked for the same quantized keys.
type traceProbes struct {
	src   *telemetry.TraceSource
	cache *anchorcache.Cache
	keys  []anchorcache.Key
	miss  []anchorcache.Key
}

func newTraceProbes(ctl *fleet.Controller, readings []telemetry.Reading) (*traceProbes, error) {
	src, err := telemetry.NewTraceSource(readings, telemetry.TraceOptions{Loop: true})
	if err != nil {
		return nil, err
	}
	for r := 0; r < gapRounds; r++ { // as far as the fixture's priming got
		if err := src.Advance(roundS, func(telemetry.Reading) bool { return true }); err != nil {
			return nil, err
		}
	}
	cfg := ctl.Config()
	cache, err := anchorcache.New(anchorcache.Config{
		MaxEntries: cfg.AnchorCacheEntries,
		Quant: anchorcache.Quantizer{
			UtilQuant: cfg.AnchorQuantUtil, MemQuant: cfg.AnchorQuantMem, AmbientQuantC: cfg.AnchorQuantAmbientC,
		},
	})
	if err != nil {
		return nil, err
	}
	return &traceProbes{src: src, cache: cache}, nil
}

func (p *traceProbes) afterRound(h *harness, ctl *fleet.Controller, hosts []string, cold bool) {
	h.probe("telemetry.trace_advance", func() (n int) {
		_ = p.src.Advance(roundS, func(telemetry.Reading) bool { n++; return true })
		return n
	})
	if cold {
		p.cache.Invalidate()
	}
	q := p.cache.Quant()
	p.keys = p.keys[:0]
	ctl.ViewSnapshot(func(s *fleet.Snapshot) {
		for _, id := range hosts {
			rd := s.Latest[id]
			key, _, _ := q.UtilMem(telemetry.Clamp01(rd.Util), telemetry.Clamp01(rd.MemFrac))
			p.keys = append(p.keys, key)
		}
	})
	h.probe("anchorcache.get", func() int {
		p.miss = p.miss[:0]
		for _, k := range p.keys {
			if _, ok := p.cache.Get(k); !ok {
				p.miss = append(p.miss, k)
			}
		}
		return len(p.keys)
	})
	if len(p.miss) > 0 {
		h.probe("anchorcache.put", func() int {
			for _, k := range p.miss {
				p.cache.Put(k, 50)
			}
			return len(p.miss)
		})
	}
}

// checkpoint captures and encodes the controller's state once, after the
// timed phase.
func (p *traceProbes) checkpoint(h *harness, ctl *fleet.Controller) {
	var buf bytes.Buffer
	var err error
	h.probe("checkpoint.encode", func() int {
		var st *checkpoint.State
		if st, err = ctl.Checkpoint(); err == nil {
			_, err = checkpoint.Encode(&buf, 1, st)
		}
		return 1
	})
	if err != nil {
		h.units(0, 1, "checkpoint: %v", err)
	}
	h.tr.count("checkpoint.bytes", float64(buf.Len()))
}

// streamProbes feed each op's readings to two twin engines, one per way the
// event path can use the layer: PredictFresh (what ingest with predict:true
// calls) and ObserveBatch (ingest without).
type streamProbes struct {
	fresh, observe *engine.Engine
	anchor         engine.AnchorLookup
}

func newStreamProbes(ctl *fleet.Controller) (*streamProbes, error) {
	p := &streamProbes{}
	var err error
	if p.fresh, err = engine.New(ctl.Engine().Config()); err != nil {
		return nil, err
	}
	if p.observe, err = engine.New(ctl.Engine().Config()); err != nil {
		return nil, err
	}
	// A twin session starts from the anchor the controller's session has.
	p.anchor = func(r telemetry.Reading) (float64, bool) {
		v, err := ctl.Engine().Stable(r.HostID)
		return v, err == nil
	}
	return p, nil
}

func (p *streamProbes) afterOp(h *harness, rs []fleet.Reading) {
	h.probe("engine.predict_fresh", func() int {
		var st engine.StreamStats
		var pred engine.Prediction
		for i := range rs {
			p.fresh.PredictFresh(rs[i], p.anchor, &st, &pred)
		}
		return len(rs)
	})
	h.probe("engine.observe_batch", func() int { p.observe.ObserveBatch(rs, p.anchor); return len(rs) })
}

// placeSpec converts a wire placement request the way the endpoint's
// unexported toSpec does, for the twin fleet that is driven below HTTP.
func placeSpec(r predictserver.FleetPlaceRequest) workload.VMSpec {
	spec := workload.VMSpec{ID: r.ID, Config: vmm.VMConfig{VCPUs: r.VCPUs, MemoryGB: r.MemoryGB}}
	for i, ts := range r.Tasks {
		spec.Tasks = append(spec.Tasks, workload.TaskSpec{
			Task: vmm.Task{
				ID: spec.ID + "-t" + strconv.Itoa(i), Class: vmm.CPUBound,
				CPUFraction: ts.CPUFraction, MemGB: ts.MemGB,
			},
			Profile: workload.Constant{Level: ts.CPUFraction},
		})
	}
	return spec
}
