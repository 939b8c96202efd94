package main

import (
	"context"
	"fmt"
	"math"

	"vmtherm/internal/core"
	"vmtherm/internal/dataset"
	"vmtherm/internal/fleet"
	"vmtherm/internal/mathx"
	"vmtherm/internal/predictclient"
	"vmtherm/internal/predictserver"
	"vmtherm/internal/telemetry"
	"vmtherm/internal/workload"
)

// sizing is the fixture scale. full is what the benchmark measures; smoke
// shrinks every fixture so the package tests can run all five workloads in
// seconds (its numbers mean nothing).
type sizing struct {
	trainCases, heldOut int
	racks, perRack      int // the "4k" fleets
	placeRacks          int // sched_place fleet, perRack/2 hosts per rack
	liveVMs             int // sched_place retires the oldest VM beyond this
	coldEvery           int // round_trace4k invalidates the anchor cache every n-th round
	roundEvery          int // sched_place runs a round every n ops
	refDivisor          int // divides the reference kernel's loop counts
}

var (
	full  = sizing{trainCases: 160, heldOut: 40, racks: 32, perRack: 128, placeRacks: 16, liveVMs: 2048, coldEvery: 16, roundEvery: 32, refDivisor: 1}
	smoke = sizing{trainCases: 12, heldOut: 4, racks: 2, perRack: 32, placeRacks: 2, liveVMs: 32, coldEvery: 4, roundEvery: 4, refDivisor: 32}
)

const (
	ingestBatch = 64  // readings per stream_fresh4k op
	stableBatch = 128 // rows per sched_stable op
	placeBatch  = 16  // VMs per sched_place op
)

// env is what a workload's fixture is built from.
type env struct {
	ctx   context.Context
	seed  int64
	size  sizing
	model *core.StablePredictor
	train []dataset.Record
	h     *harness
}

// spec describes one workload: its unit of work and the op count
// per block when -seconds is 24 (the issue's fixed counts; other run lengths
// scale it and round to grain).
type spec struct {
	name, unit, why string
	unitsPerOp      func(sizing) int
	perBlock24      float64
	grain           func(sizing) int
	build           func(e *env, traced bool) (runner, error)
}

func one(sizing) int { return 1 }

var specs = []spec{
	{
		name: "round_sim4k", unit: "host-round",
		why:        "whole closed loop on a simulated fleet: physics is about two thirds of the round, control one third, with hot hosts so propose/reconcile run",
		unitsPerOp: func(s sizing) int { return s.racks * s.perRack },
		perBlock24: 25,
		grain:      one,
		build:      buildRoundSim,
	},
	{
		name: "round_trace4k", unit: "host-round",
		why:        "physics-free control for round_sim4k: replay, drain, anchors, engine round, publish; every 16th round is cold so the SVM miss path shows in work_per_s",
		unitsPerOp: func(s sizing) int { return s.racks * s.perRack },
		perBlock24: 96,
		grain:      func(s sizing) int { return s.coldEvery },
		build:      buildRoundTrace,
	},
	{
		name: "stream_fresh4k", unit: "reading",
		why:        "event path: arrival to visible prediction through JSON, IngestBatch and PredictFresh; the round that re-handles each sweep is in work_per_s only",
		unitsPerOp: func(sizing) int { return ingestBatch },
		perBlock24: 1280,
		grain:      func(s sizing) int { return s.racks * s.perRack / ingestBatch },
		build:      buildStreamFresh,
	},
	{
		name: "sched_stable", unit: "prediction",
		why:        "read-only scoring path without a fleet: decode, PredictBatchInto, SVM kernel, encode; bypasses engine, cache and rounds",
		unitsPerOp: func(sizing) int { return stableBatch },
		perBlock24: 600,
		grain:      one,
		build:      buildSchedStable,
	},
	{
		name: "sched_place", unit: "VM decision",
		why:        "the write beside sched_stable: ranking, waves, batched psi_stable, mutating a 16x64 fleet so interleaved rounds miss the anchor cache",
		unitsPerOp: func(sizing) int { return placeBatch },
		perBlock24: 320,
		grain:      func(s sizing) int { return s.roundEvery },
		build:      buildSchedPlace,
	},
}

func findSpec(name string) *spec {
	for i := range specs {
		if specs[i].name == name {
			return &specs[i]
		}
	}
	return nil
}

// opsPerBlock scales the spec's op count to the run length and rounds it to
// a whole number of grains, at least one.
func (s *spec) opsPerBlock(size sizing, seconds float64) int {
	g := s.grain(size)
	n := int(math.Round(s.perBlock24 * seconds / 24 / float64(g)))
	return max(n, 1) * g
}

// fleetConfig is the single-core controller configuration every fleet
// workload starts from.
func fleetConfig(seed int64) fleet.Config {
	cfg := fleet.DefaultConfig()
	cfg.PhysWorkers = 1
	cfg.AnchorWorkers = 1
	cfg.Seed = seed
	return cfg
}

// gapTracker scores Δ_gap-ahead predictions against what was observed
// gapRounds rounds later, per host.
type gapTracker struct {
	ring [gapRounds + 1][]float64
	r    int
	sum  float64
	n    int64
}

func newGapTracker(hosts int) *gapTracker {
	g := &gapTracker{}
	for i := range g.ring {
		g.ring[i] = make([]float64, hosts)
	}
	return g
}

// cur is where this round's predictions go; due holds the predictions made
// gapRounds rounds ago (nil until that many rounds have passed).
func (g *gapTracker) cur() []float64 { return g.ring[g.r%len(g.ring)] }
func (g *gapTracker) due() []float64 {
	if g.r < gapRounds {
		return nil
	}
	return g.ring[(g.r+1)%len(g.ring)]
}
func (g *gapTracker) next() { g.r++ }

func (g *gapTracker) score(pred, observed float64) {
	if !math.IsNaN(pred) {
		g.sum += (pred - observed) * (pred - observed)
		g.n++
	}
}

func (g *gapTracker) mse() float64 {
	if g.n == 0 {
		return 0
	}
	return g.sum / float64(g.n)
}

// observe folds the controller's freshly published snapshot in: last
// Δ_gap's predictions against this round's readings, then this round's
// predictions for later. Hosts are walked in a fixed order so the sum is
// bit-identical run to run.
func (g *gapTracker) observe(ctl *fleet.Controller, hosts []string) {
	ctl.ViewSnapshot(func(s *fleet.Snapshot) {
		cur, due := g.cur(), g.due()
		for i, id := range hosts {
			if rd, ok := s.Latest[id]; ok && due != nil {
				g.score(due[i], rd.TempC)
			}
			if p, ok := s.Predicted[id]; ok {
				cur[i] = p
			} else {
				cur[i] = math.NaN()
			}
		}
	})
	g.next()
}

// checkRound counts every missing, stale or unanchored host of a round as a
// failed unit. Where the round is the op its hosts are the attempted units;
// where it runs between ops (attempted 0) the ops have counted their own.
func checkRound(h *harness, rep fleet.RoundReport, hosts, attempted int) {
	bad := max(hosts-rep.Hosts, rep.Hosts-hosts) + rep.StaleHosts + rep.AnchorFailures
	h.units(attempted, bad, "round %d: %d hosts (want %d), %d stale, %d without anchor",
		rep.Round, rep.Hosts, hosts, rep.StaleHosts, rep.AnchorFailures)
}

// ---- round_sim4k ----------------------------------------------------------

type roundSim struct {
	ctl        *fleet.Controller
	hosts      []string
	gap        *gapTracker
	hot, moves int
	tenants    []int // hosts carrying a heavy tenant, oldest arrival first
	arrivals   int
	probes     *roundProbes
}

// heavyTenant lands three pinned 8-vCPU VMs on host i — an oversubscribed
// host the controller predicts hot — after removing the same tenant's
// previous generation from wherever migration has spread it.
func (w *roundSim) heavyTenant(i int) error {
	for k := 0; k < 3; k++ {
		if w.arrivals >= len(w.tenants) {
			if err := w.ctl.RemoveVM(fmt.Sprintf("heavy-%04d-%d-g%d", i, k, w.arrivals/len(w.tenants)-1)); err != nil {
				return err
			}
		}
	}
	for k := 0; k < 3; k++ {
		id := fmt.Sprintf("heavy-%04d-%d-g%d", i, k, w.arrivals/len(w.tenants))
		if err := w.ctl.PlaceAt(w.hosts[i], fleet.HeavyVMSpec(id, 8, 4)); err != nil {
			return err
		}
	}
	w.arrivals++
	return nil
}

func newSimFleet(e *env, racks, perRack int) (*fleet.Controller, error) {
	cfg := fleetConfig(e.seed)
	cfg.Racks, cfg.HostsPerRack = racks, perRack
	return fleet.New(cfg, fleet.StableBatchPredictor(e.model, cfg.HorizonS))
}

func buildRoundSim(e *env, traced bool) (runner, error) {
	ctl, err := newSimFleet(e, e.size.racks, e.size.perRack)
	if err != nil {
		return nil, err
	}
	w := &roundSim{ctl: ctl, hosts: ctl.Hosts()}
	n := len(w.hosts)
	// Every second host carries one dynamically profiled VM, so every tick
	// drives real task load and anchors keep moving. The tenant catalogue is
	// pinned like the training set — how many of its tasks follow a sine
	// decides how many anchors move per round, and a catalogue redrawn per
	// -seed moves alloc_kb_per_op by ±10 % — and -seed decides where on the
	// floor it starts (and, through the fleet's seed, all sensor noise).
	// Tenants stay in catalogue order from there: a shuffled layout makes the
	// physics walk memory at random and costs a fifth of the round.
	opts := workload.DefaultGenOptions()
	opts.VMCountMin, opts.VMCountMax = n/2, n/2
	opts.Host.Cores, opts.Host.MemoryGB = 1<<20, 1<<24
	opts.Dynamic = true
	pool, err := workload.GenerateCase(opts, datasetSeed, "round-sim")
	if err != nil {
		return nil, err
	}
	first := mathx.SplitStable(e.seed, "round-sim").Intn(len(pool.VMs))
	e.h.dig.u64(uint64(first))
	for i, vm := range pool.VMs {
		if err := ctl.PlaceAt(w.hosts[2*((first+i)%len(pool.VMs))], vm); err != nil {
			return nil, err
		}
	}
	// Every 32nd host carries a heavy tenant, so propose and reconcile have
	// work every round.
	for i := 1; i < n; i += 32 {
		w.tenants = append(w.tenants, i)
	}
	for _, i := range w.tenants {
		if err := w.heavyTenant(i); err != nil {
			return nil, err
		}
	}
	w.gap = newGapTracker(n)
	for r := 0; r < gapRounds; r++ {
		if _, err := ctl.RunRound(); err != nil {
			return nil, err
		}
	}
	if traced {
		if w.probes, err = newRoundProbes(e, ctl); err != nil {
			return nil, err
		}
	}
	return w, nil
}

func (w *roundSim) step(h *harness, i int) error {
	// Tenant churn between rounds: the oldest heavy tenant, thinned out by
	// one migration per round, is replaced by a consolidated one. Without it
	// the controller would have cooled every host after some 300 rounds and
	// the second half of a long run would measure a different workload.
	err := h.aux("fleet.tenant_churn", func() error { return w.heavyTenant(w.tenants[w.arrivals%len(w.tenants)]) })
	if err != nil {
		return err
	}
	var rep fleet.RoundReport
	err = h.op(func() (err error) { rep, err = w.ctl.RunRound(); return err })
	if err != nil {
		return err
	}
	checkRound(h, rep, len(w.hosts), len(w.hosts))
	w.hot += rep.Hotspots
	w.moves += rep.AppliedMoves
	w.gap.observe(w.ctl, w.hosts)
	if h.tr != nil {
		w.probes.afterRound(h, w.ctl, w.hosts, rep)
	}
	return nil
}

func (w *roundSim) finish(h *harness) float64 {
	if w.hot == 0 || w.moves == 0 {
		h.units(0, 1, "round_sim4k: %d hotspots and %d applied moves over the run, want both > 0", w.hot, w.moves)
	}
	return w.gap.mse()
}

// ---- round_trace4k --------------------------------------------------------

type roundTrace struct {
	ctl    *fleet.Controller
	hosts  []string
	gap    *gapTracker
	cold   int
	probes *roundProbes
	trace  *traceProbes
}

// traceReadings lays the signal out as a trace: all hosts of one round share
// one timestamp, so every looped round replays exactly one reading per host
// whatever the float rounding of the trace period.
func traceReadings(sig *signal, hosts []string) []telemetry.Reading {
	out := make([]telemetry.Reading, 0, len(sig.tempC))
	for r := 0; r < sig.rounds; r++ {
		for i, id := range hosts {
			k := r*sig.hosts + i
			out = append(out, telemetry.Reading{
				HostID: id, AtS: float64(r) * roundS,
				TempC: sig.tempC[k], Util: sig.util[k], MemFrac: sig.mem[k],
			})
		}
	}
	return out
}

func buildRoundTrace(e *env, traced bool) (runner, error) {
	n := e.size.racks * e.size.perRack
	hosts := hostIDs(n, e.size.perRack)
	sig := genSignal(mathx.SplitStable(e.seed, "round-trace"), n, &e.h.dig)
	readings := traceReadings(sig, hosts)
	src, err := telemetry.NewTraceSource(readings, telemetry.TraceOptions{Loop: true})
	if err != nil {
		return nil, err
	}
	cfg := fleetConfig(e.seed)
	cfg.MaxHosts = n
	ctl, err := fleet.NewWithSource(cfg, src, fleet.StableBatchPredictor(e.model, cfg.HorizonS))
	if err != nil {
		return nil, err
	}
	w := &roundTrace{ctl: ctl, hosts: hosts, gap: newGapTracker(n), cold: e.size.coldEvery}
	for r := 0; r < gapRounds; r++ {
		if _, err := ctl.RunRound(); err != nil {
			return nil, err
		}
	}
	if traced {
		if w.probes, err = newRoundProbes(e, ctl); err != nil {
			return nil, err
		}
		if w.trace, err = newTraceProbes(ctl, readings); err != nil {
			return nil, err
		}
	}
	return w, nil
}

func (w *roundTrace) step(h *harness, i int) error {
	cold := i%w.cold == 0
	if cold {
		// A model hot-swap: every anchor goes back through the SVM.
		w.ctl.InvalidateAnchorCache()
	}
	var rep fleet.RoundReport
	err := h.op(func() (err error) { rep, err = w.ctl.RunRound(); return err })
	if err != nil {
		return err
	}
	checkRound(h, rep, len(w.hosts), len(w.hosts))
	if cold && rep.AnchorFanout == 0 {
		h.units(0, 1, "round %d: cold round fanned out no anchors", rep.Round)
	}
	w.gap.observe(w.ctl, w.hosts)
	if h.tr != nil {
		w.trace.afterRound(h, w.ctl, w.hosts, cold)
		w.probes.afterRound(h, w.ctl, w.hosts, rep)
	}
	return nil
}

func (w *roundTrace) finish(h *harness) float64 {
	if h.tr != nil {
		w.trace.checkpoint(h, w.ctl)
	}
	return w.gap.mse()
}

// ---- stream_fresh4k -------------------------------------------------------

// pushSource is a telemetry source that produces nothing itself: its clock
// advances with the rounds and every reading arrives through the ingest
// endpoint, the way a fleet of push agents looks to the controller.
type pushSource struct{ nowS float64 }

func (s *pushSource) Name() string  { return "push" }
func (s *pushSource) NowS() float64 { return s.nowS }
func (s *pushSource) Advance(dtS float64, _ func(telemetry.Reading) bool) error {
	s.nowS += dtS
	return nil
}

type streamFresh struct {
	ctx      context.Context
	ctl      *fleet.Controller
	srv      *predictserver.Server
	client   *predictclient.Client
	tap      *tap
	sig      *signal
	hosts    []string
	perSweep int // ops per fleet sweep
	primed   int // sweeps pushed during set-up
	wire     []predictserver.FleetReading
	direct   []fleet.Reading
	results  []fleet.IngestResult
	gap      *gapTracker
	twin     *streamFresh // traced: a second fixture fed the same readings below HTTP
	engines  *streamProbes
}

// serve puts a server with one worker around the model (and fleet) and an
// in-process client in front of it, with the tracing tap in between.
func serve(e *env, name string, opts ...predictserver.Option) (*predictserver.Server, *predictclient.Client, *tap, error) {
	srv, err := predictserver.New(e.model, append([]predictserver.Option{predictserver.WithWorkers(1)}, opts...)...)
	if err != nil {
		return nil, nil, nil, err
	}
	t := &tap{next: srv.Handler(), h: e.h, name: name}
	client, err := predictclient.NewLocal(t)
	if err != nil {
		srv.Close()
		return nil, nil, nil, err
	}
	return srv, client, t, nil
}

func buildStreamFresh(e *env, traced bool) (runner, error) {
	w, err := newStreamFresh(e, &e.h.dig)
	if err != nil {
		return nil, err
	}
	if traced {
		var dig digest // the twin's copy of the inputs must not count twice
		if w.twin, err = newStreamFresh(e, &dig); err != nil {
			return nil, err
		}
		if w.engines, err = newStreamProbes(w.ctl); err != nil {
			return nil, err
		}
	}
	return w, nil
}

func newStreamFresh(e *env, dig *digest) (*streamFresh, error) {
	n := e.size.racks * e.size.perRack
	cfg := fleetConfig(e.seed)
	cfg.MaxHosts = n
	cfg.StreamingIngest = true
	ctl, err := fleet.NewWithSource(cfg, &pushSource{}, fleet.StableBatchPredictor(e.model, cfg.HorizonS))
	if err != nil {
		return nil, err
	}
	srv, client, t, err := serve(e, "predictserver.ingest", predictserver.WithFleet(ctl))
	if err != nil {
		return nil, err
	}
	w := &streamFresh{
		ctx: e.ctx, ctl: ctl, srv: srv, client: client, tap: t,
		hosts:    hostIDs(n, e.size.perRack),
		perSweep: n / ingestBatch,
		wire:     make([]predictserver.FleetReading, ingestBatch),
		direct:   make([]fleet.Reading, ingestBatch),
		results:  make([]fleet.IngestResult, ingestBatch),
		gap:      newGapTracker(n),
	}
	w.sig = genSignal(mathx.SplitStable(e.seed, "stream-fresh"), n, dig)
	// The first sweep discovers the population (every reading deferred to
	// the round), the rest warm the sessions.
	for ; w.primed < gapRounds+2; w.primed++ {
		for c := 0; c < w.perSweep; c++ {
			w.fill(w.primed, c)
			w.ctl.IngestBatch(w.direct, false, w.results)
		}
		if _, err := ctl.RunRound(); err != nil {
			return nil, err
		}
	}
	return w, nil
}

// fill writes chunk c of sweep s into both reading buffers. A sweep is one
// Δ_update of source time; host i reports at its own offset inside it.
func (w *streamFresh) fill(s, c int) {
	n := len(w.hosts)
	row := (s % w.sig.rounds) * n
	for k := range w.wire {
		i := c*ingestBatch + k
		r := fleet.Reading{
			HostID: w.hosts[i], AtS: (float64(s) + float64(i+1)/float64(n)) * roundS,
			TempC: w.sig.tempC[row+i], Util: w.sig.util[row+i], MemFrac: w.sig.mem[row+i],
		}
		w.direct[k] = r
		w.wire[k] = predictserver.FleetReading{HostID: r.HostID, AtS: r.AtS, TempC: r.TempC, Util: r.Util, MemFrac: r.MemFrac}
	}
}

func (w *streamFresh) step(h *harness, i int) error {
	s, c := w.primed+i/w.perSweep, i%w.perSweep
	w.fill(s, c)
	var resp *predictserver.FleetIngestResponse
	err := h.op(func() (err error) { resp, err = w.client.FleetIngestPredict(w.ctx, w.wire); return err })
	if err != nil {
		return err
	}
	bad := ingestBatch
	if len(resp.Predictions) == ingestBatch {
		cur, due := w.gap.cur(), w.gap.due()
		for k, p := range resp.Predictions {
			host := c*ingestBatch + k
			cur[host] = math.NaN()
			if p.Outcome != "streamed" || p.HostID != w.wire[k].HostID ||
				math.IsNaN(p.PredictedTempC) || math.IsInf(p.PredictedTempC, 0) {
				continue
			}
			bad--
			cur[host] = p.PredictedTempC
			if due != nil {
				w.gap.score(due[host], w.wire[k].TempC)
			}
		}
	}
	h.units(ingestBatch, bad, "ingest op %d: %d of %d readings not answered with a finite streamed prediction (accepted %d dropped %d deferred %d rejected %d)",
		i, bad, ingestBatch, resp.Accepted, resp.Dropped, resp.Deferred, resp.Rejected)
	if h.tr != nil {
		h.probe("fleet.ingest_batch", func() int { w.twin.ctl.IngestBatch(w.direct, true, w.twin.results); return ingestBatch })
		w.engines.afterOp(h, w.direct)
	}
	if c < w.perSweep-1 {
		return nil
	}
	w.gap.next()
	var rep fleet.RoundReport
	err = h.aux("fleet.run_round", func() (err error) { rep, err = w.ctl.RunRound(); return err })
	if err != nil {
		return err
	}
	checkRound(h, rep, len(w.hosts), 0)
	if h.tr != nil {
		noteRound(h, rep)
		if _, err := w.twin.ctl.RunRound(); err != nil {
			return err
		}
	}
	return nil
}

func (w *streamFresh) close() {
	w.srv.Close()
	if w.twin != nil {
		w.twin.close()
	}
}

func (w *streamFresh) finish(h *harness) float64 {
	w.tap.report()
	_, dropped, _ := w.ctl.IngestStats()
	_, rejected := w.ctl.IngestRejected()
	if dropped+rejected > 0 {
		h.units(0, int(dropped+rejected), "stream_fresh4k: pipeline dropped %d and rejected %d readings", dropped, rejected)
	}
	if h.tr != nil {
		_, _, deferred, _ := w.ctl.StreamTotals()
		h.tr.count("fleet.stream.deferred", float64(deferred))
		h.tr.count("fleet.ingest.dropped", float64(dropped))
	}
	return w.gap.mse()
}

// ---- sched_stable ---------------------------------------------------------

type schedStable struct {
	ctx    context.Context
	model  *core.StablePredictor
	srv    *predictserver.Server
	client *predictclient.Client
	tap    *tap
	held   []dataset.Record
	rng    *mathx.RNG
	rows   [][]float64
	pick   []int
	sumSq  float64
	n      int64
	probes *modelProbes
}

func buildSchedStable(e *env, traced bool) (runner, error) {
	held, err := buildRecords(e.ctx, datasetSeed+1, "held", e.size.heldOut)
	if err != nil {
		return nil, err
	}
	srv, client, t, err := serve(e, "predictserver.stable_batch")
	if err != nil {
		return nil, err
	}
	w := &schedStable{
		ctx: e.ctx, model: e.model, srv: srv, client: client, tap: t, held: held,
		rng:  mathx.SplitStable(e.seed, "sched-stable"),
		rows: make([][]float64, stableBatch),
		pick: make([]int, stableBatch),
	}
	if traced {
		if w.probes, err = newModelProbes(e); err != nil {
			return nil, err
		}
	}
	return w, nil
}

func (w *schedStable) step(h *harness, i int) error {
	for k := range w.rows {
		w.pick[k] = w.rng.Intn(len(w.held))
		w.rows[k] = w.held[w.pick[k]].Features
		h.dig.u64(uint64(w.pick[k]))
	}
	var out []float64
	err := h.op(func() (err error) { out, err = w.client.PredictStableBatch(w.ctx, w.rows); return err })
	if err != nil {
		return err
	}
	bad := 0
	for k, v := range out {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			bad++
			continue
		}
		d := v - w.held[w.pick[k]].StableTemp
		w.sumSq += d * d
		w.n++
	}
	if i%64 == 0 {
		// Sampled equivalence with the library path the endpoint wraps.
		want, err := w.model.PredictBatch(w.rows)
		if err != nil {
			return err
		}
		for k := range want {
			if math.Abs(want[k]-out[k]) > 1e-9 {
				bad = stableBatch
			}
		}
	}
	h.units(stableBatch, bad, "stable op %d: %d of %d served predictions non-finite or off the direct PredictBatch", i, bad, stableBatch)
	if h.tr != nil {
		w.probes.run(h, w.rows)
	}
	return nil
}

func (w *schedStable) close() { w.srv.Close() }

func (w *schedStable) finish(*harness) float64 {
	w.tap.report()
	if w.n == 0 {
		return 0
	}
	return w.sumSq / float64(w.n)
}

// ---- sched_place ----------------------------------------------------------

type schedPlace struct {
	ctx        context.Context
	ctl        *fleet.Controller
	srv        *predictserver.Server
	client     *predictclient.Client
	tap        *tap
	hosts      []string
	isHost     map[string]bool
	rng        *mathx.RNG
	seq        int
	reqs       []predictserver.FleetPlaceRequest
	live       []string // placed VM ids, oldest first
	isLive     map[string]bool
	liveMax    int
	roundEvery int
	gap        *gapTracker
	sumPred    float64
	placed     int64
	twin       *schedPlace // traced: a second fleet driven below HTTP
	model      *modelProbes
}

func buildSchedPlace(e *env, traced bool) (runner, error) {
	w, err := newSchedPlace(e, &e.h.dig)
	if err != nil {
		return nil, err
	}
	if traced {
		var dig digest
		if w.twin, err = newSchedPlace(e, &dig); err != nil {
			return nil, err
		}
		if w.model, err = newModelProbes(e); err != nil {
			return nil, err
		}
	}
	return w, nil
}

func newSchedPlace(e *env, dig *digest) (*schedPlace, error) {
	ctl, err := newSimFleet(e, e.size.placeRacks, e.size.perRack/2)
	if err != nil {
		return nil, err
	}
	srv, client, t, err := serve(e, "predictserver.place_batch", predictserver.WithFleet(ctl))
	if err != nil {
		return nil, err
	}
	w := &schedPlace{
		ctx: e.ctx, ctl: ctl, srv: srv, client: client, tap: t, hosts: ctl.Hosts(),
		isHost: make(map[string]bool), isLive: make(map[string]bool),
		rng:     mathx.SplitStable(e.seed, "sched-place"),
		reqs:    make([]predictserver.FleetPlaceRequest, placeBatch),
		liveMax: e.size.liveVMs, roundEvery: e.size.roundEvery,
	}
	for _, id := range w.hosts {
		w.isHost[id] = true
	}
	w.gap = newGapTracker(len(w.hosts))
	if _, err := ctl.RunRound(); err != nil {
		return nil, err
	}
	// Fill the fleet to its steady population the way the timed phase will
	// keep it, so op 0 already sees a full, churning fleet.
	for b := 0; len(w.live) < w.liveMax; b++ {
		w.draw(dig)
		decs, err := ctl.PlaceBatch(w.specs())
		if err != nil {
			return nil, err
		}
		for _, d := range decs {
			if d.Status != fleet.Placed {
				return nil, fmt.Errorf("priming placement of %s: %s (%s)", d.VMID, d.Status, d.Reason)
			}
			w.admit(d.VMID)
		}
		if (b+1)%w.roundEvery == 0 {
			if _, err := ctl.RunRound(); err != nil {
				return nil, err
			}
		}
	}
	for r := 0; r < gapRounds; r++ {
		if _, err := ctl.RunRound(); err != nil {
			return nil, err
		}
	}
	return w, nil
}

// draw generates the next batch of placement requests.
func (w *schedPlace) draw(dig *digest) {
	for k := range w.reqs {
		w.reqs[k] = placeRequest(w.rng, w.seq, dig)
		w.seq++
	}
}

// specs converts the current requests the way the endpoint does, for the
// calls that go below HTTP.
func (w *schedPlace) specs() []workload.VMSpec {
	out := make([]workload.VMSpec, len(w.reqs))
	for k, r := range w.reqs {
		out[k] = placeSpec(r)
	}
	return out
}

func (w *schedPlace) admit(id string) {
	w.live = append(w.live, id)
	w.isLive[id] = true
}

// retire removes the oldest VMs beyond the live bound through remove, which
// is timed by the caller where it counts.
func (w *schedPlace) retire(remove func(id string) error) error {
	for len(w.live) > w.liveMax {
		id := w.live[0]
		w.live = w.live[1:]
		delete(w.isLive, id)
		if err := remove(id); err != nil {
			return fmt.Errorf("retiring %s: %w", id, err)
		}
	}
	return nil
}

func (w *schedPlace) step(h *harness, i int) error {
	w.draw(&h.dig)
	var resp *predictserver.FleetPlaceBatchResponse
	err := h.op(func() (err error) { resp, err = w.client.FleetPlaceBatch(w.ctx, w.reqs); return err })
	if err != nil {
		return err
	}
	bad := placeBatch
	if len(resp.Results) == placeBatch {
		for k, d := range resp.Results {
			if d.Status != "placed" || d.VMID != w.reqs[k].ID || !w.isHost[d.HostID] || w.isLive[d.VMID] {
				continue
			}
			bad--
			w.admit(d.VMID)
			w.sumPred += d.PredictedStableC
			w.placed++
		}
	}
	h.units(placeBatch, bad, "place op %d: %d of %d VMs not placed once on a known host (placed %d queued %d rejected %d)",
		i, bad, placeBatch, resp.Placed, resp.Queued, resp.Rejected)
	if h.tr != nil {
		specs := w.specs()
		h.probe("fleet.place_batch", func() int {
			decs, _ := w.twin.ctl.PlaceBatch(specs)
			for _, d := range decs {
				if d.Status == fleet.Placed {
					w.twin.admit(d.VMID)
				}
			}
			return placeBatch
		})
		// A placement call predicts up to 256 candidate deployments.
		w.model.run(h, w.model.pool(256))
		if err := w.twin.retire(w.twin.ctl.RemoveVM); err != nil {
			return err
		}
	}
	err = w.retire(func(id string) error {
		return h.aux("fleet.remove_vm", func() error { return w.ctl.RemoveVM(id) })
	})
	if err != nil || (i+1)%w.roundEvery != 0 {
		return err
	}
	var rep fleet.RoundReport
	err = h.aux("fleet.run_round", func() (err error) { rep, err = w.ctl.RunRound(); return err })
	if err != nil {
		return err
	}
	checkRound(h, rep, len(w.hosts), 0)
	w.gap.observe(w.ctl, w.hosts)
	if h.tr != nil {
		noteRound(h, rep)
		if _, err := w.twin.ctl.RunRound(); err != nil {
			return err
		}
	}
	return nil
}

func (w *schedPlace) close() {
	w.srv.Close()
	if w.twin != nil {
		w.twin.close()
	}
}

func (w *schedPlace) finish(h *harness) float64 {
	w.tap.report()
	if h.tr != nil && w.placed > 0 {
		h.tr.count("fleet.place.mean_predicted_c", w.sumPred/float64(w.placed))
	}
	return w.gap.mse()
}
