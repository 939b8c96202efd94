// Command e2e is the repository's benchmark: five workloads with fixed,
// seeded op counts, seven bounded end-to-end metrics plus a failure count per
// workload, and — in a separate traced run — a per-layer ladder measured from
// outside the product. README.md says how to run it and why it is built the
// way it is; BENCHMARK.json at the repository root is its contract.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"vmtherm/internal/core"
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	out      string
	spans    string
	aa       int
	smoke    bool // tiny fixtures; set by the package tests only
}

func main() {
	// One P: the collector and the server's worker run inline, so the state
	// of a second vCPU never enters a measurement. Parallel speed-up is
	// measured elsewhere (BenchmarkFleetRound4k/sharded).
	runtime.GOMAXPROCS(1)
	var o options
	flag.StringVar(&o.workload, "workload", "all", "workload to run, or all (one child process each)")
	flag.Int64Var(&o.seed, "seed", 2016, "seed of every generated input")
	flag.Float64Var(&o.seconds, "seconds", 24, "nominal length of the timed phase; op counts scale with it and are fixed for a given value")
	flag.IntVar(&o.trace, "trace", 0, "1 runs the traced phase and prints the per-layer metrics instead of the end-to-end ones")
	flag.StringVar(&o.out, "out", "", "write the full result as JSON to this file")
	flag.StringVar(&o.spans, "spans", "", "with -trace 1, write the spans to this file as JSON lines")
	flag.IntVar(&o.aa, "aa", 0, "run this many full sets back to back at one seed and report how far they agree, against the bounds")
	flag.Parse()

	var err error
	switch {
	case o.aa > 0:
		err = runAA(o)
	case o.workload == "all":
		err = runAll(o)
	default:
		err = runOne(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench/e2e:", err)
		os.Exit(1)
	}
}

// runOne measures one workload in this process and prints its result; the
// last line of standard output is the contract's result object.
func runOne(o options) error {
	res, tr, err := measure(o)
	if err != nil {
		return err
	}
	printResult(os.Stdout, res)
	if o.out != "" {
		if err := writeJSON(o.out, res); err != nil {
			return err
		}
	}
	if o.spans != "" && tr != nil {
		if err := tr.write(o.spans); err != nil {
			return err
		}
	}
	line, err := json.Marshal(res.contract())
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if res.Failed > 0 {
		return fmt.Errorf("%s: %d of %d units failed their checks", res.Workload, res.Failed, res.Attempted)
	}
	return nil
}

// traceShare is the part of the op count a -trace 1 run spends on each of its
// two phases, the untraced one and the traced one with every twin beside it.
const traceShare = 0.25

// setupClock adds up the stages of set-up, each bracketed by reference runs
// of its own: a stage's wall time counts at the host speed of that stage, not
// of the two seconds around it.
type setupClock struct {
	refDiv   int
	ref      time.Duration // the reference run that closed the previous stage
	raw, cal float64       // seconds
}

func (c *setupClock) stage(fn func() error) error {
	start := time.Now()
	err := fn()
	d := time.Since(start).Seconds()
	after := timeCalib(c.refDiv)
	c.raw += d
	c.cal += d * speedFactor(c.ref, after)
	c.ref = after
	return err
}

// untimed runs a set-up stage outside any clock.
func untimed(fn func() error) error { return fn() }

// setup is what a daemon pays at start: generate and run the training
// experiments, train the model, build the workload's fixture and prime it.
// Each of the three goes through stage.
func setup(ctx context.Context, sp *spec, o options, size sizing, traced bool, stage func(func() error) error) (*harness, runner, *env, error) {
	h := &harness{refDiv: size.refDivisor}
	e := &env{ctx: ctx, seed: o.seed, size: size, h: h}
	err := stage(func() (err error) {
		e.train, err = buildRecords(ctx, datasetSeed, "train", size.trainCases)
		return err
	})
	if err != nil {
		return nil, nil, nil, err
	}
	err = stage(func() (err error) {
		e.model, err = core.TrainStable(ctx, e.train, core.FastStableConfig())
		return err
	})
	if err != nil {
		return nil, nil, nil, fmt.Errorf("training: %w", err)
	}
	var w runner
	err = stage(func() (err error) {
		w, err = sp.build(e, traced)
		return err
	})
	if err != nil {
		return nil, nil, nil, fmt.Errorf("building %s: %w", sp.name, err)
	}
	return h, w, e, nil
}

// measure runs one workload: set-up, then the timed phase — with -trace 1
// interleaved with a traced phase on a second fixture — and assembles the
// result.
func measure(o options) (*result, *tracer, error) {
	sp := findSpec(o.workload)
	if sp == nil {
		return nil, nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.seconds <= 0 {
		return nil, nil, fmt.Errorf("-seconds must be positive")
	}
	size := full
	if o.smoke {
		size = smoke
	}
	seconds := o.seconds
	if o.trace != 0 {
		seconds *= traceShare
	}
	perBlock := sp.opsPerBlock(size, seconds)
	ctx := context.Background()

	clock := &setupClock{refDiv: size.refDivisor, ref: timeCalib(size.refDivisor)}
	h, w, e, err := setup(ctx, sp, o, size, false, clock.stage)
	if err != nil {
		return nil, nil, err
	}
	defer closeWorkload(w)
	var (
		ph     *phase
		traced *harness
	)
	if o.trace == 0 {
		ph, err = h.run(w, perBlock)
	} else {
		ph, traced, err = runTraced(ctx, sp, o, size, perBlock, h, w)
	}
	if err != nil {
		return nil, nil, err
	}
	mse := w.finish(h)

	res := &result{
		Workload: sp.name, Seed: o.seed, Seconds: o.seconds, Trace: traced != nil,
		Ops: len(ph.opNs), Unit: sp.unit, Digest: h.dig.String(),
		Attempted: h.attempted, Failed: h.failed, Failures: h.failMsgs,
		Metrics: make(map[string]value),
	}
	ops := float64(len(ph.opNs))
	e2e := func(name string, v float64, samples int) { res.set(findMetric(endToEnd, name), v, samples) }
	layer := func(name string, v float64, samples int) { res.set(findMetric(perLayer, name), v, samples) }

	cal, raw := ph.opMs(false), ph.opMs(true)
	unitsPerBlock := float64(sp.unitsPerOp(size) * perBlock)
	e2e("setup_s", clock.cal, 1)
	e2e("op_ms_p50", percentile(cal, 0.50), len(cal))
	e2e("op_ms_p90", percentile(cal, 0.90), len(cal))
	e2e("work_per_s", unitsPerBlock/ph.blockS(false), blocks)
	e2e("alloc_kb_per_op", float64(ph.allocBytes)/1024/ops, len(cal))
	e2e("rss_peak_mb", rssPeakMB(), 1)
	e2e("pred_mse_c2", mse, 1)

	// Ungated companions, from the untraced phase in either mode.
	ref := ph.refMs()
	layer("tail.op_ms_p99", percentile(cal, 0.99), len(cal))
	layer("raw.op_ms_p50", percentile(raw, 0.50), len(raw))
	layer("raw.work_per_s", unitsPerBlock/ph.blockS(true), blocks)
	layer("raw.setup_s", clock.raw, 1)
	refP50 := percentile(ref, 0.50)
	layer("calib.ref_ms_p50", refP50, len(ref))
	layer("calib.ref_spread", (ref[len(ref)-1]-ref[0])/refP50, len(ref))
	layer("gen.build_us_per_op", ph.genUsPerOp(), len(cal))
	layer("runtime.allocs_per_op", float64(ph.mallocs)/ops, len(cal))
	layer("runtime.gc_cycles", float64(ph.gcCycles), 1)
	layer("runtime.gc_pause_ms", float64(ph.gcPauseNs)/1e6, 1)
	layer("svm.num_sv", float64(e.model.NumSV()), 1)

	var tr *tracer
	if traced != nil {
		tr = traced.tr
		layerMetrics(traced, ph, res)
	}
	res.set(failRatio, float64(res.Failed)/float64(max(res.Attempted, 1)), int(res.Attempted))
	return res, tr, nil
}

// runTraced runs the untraced phase on fixture w and, block by block in
// alternation with it, the same ops on a second, identical fixture with
// tracing on and every twin beside it. Alternating puts each traced block
// next in time to its untraced counterpart, so what tracing costs is read
// off pairs of blocks that saw the same host.
func runTraced(ctx context.Context, sp *spec, o options, size sizing, perBlock int, h *harness, w runner) (*phase, *harness, error) {
	th, tw, _, err := setup(ctx, sp, o, size, true, untimed)
	if err != nil {
		return nil, nil, err
	}
	defer closeWorkload(tw)
	h.begin(perBlock)
	th.begin(perBlock)
	th.tr = newTracer()
	ref := timeCalib(h.refDiv)
	for b := 0; b < blocks; b++ {
		if ref, err = h.block(w, b, ref); err != nil {
			return nil, nil, err
		}
		if ref, err = th.block(tw, b, ref); err != nil {
			return nil, nil, err
		}
	}
	tw.finish(th)
	return h.ph, th, nil
}

// layerMetrics fills in every per-layer metric from the traced phase;
// untraced is the same ops' untraced phase.
func layerMetrics(h *harness, untraced *phase, res *result) {
	tr, ph := h.tr, h.ph
	res.Attempted += h.attempted
	res.Failed += h.failed
	res.Failures = append(res.Failures, h.failMsgs...)

	layer := func(name string, v float64, samples int) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.set(findMetric(perLayer, name), v, samples)
	}
	ns := func(metric, series string) { layer(metric, tr.p50(ph, series, true), len(tr.series[series])) }
	ms := func(metric, series string) { layer(metric, tr.p50(ph, series, false)/1e6, len(tr.series[series])) }
	rounds := tr.counts["rounds"]
	total := func(metric, counter string) { layer(metric, tr.counts[counter], int(rounds)) }
	perRound := func(metric, counter string) { layer(metric, tr.counts[counter]/rounds, int(rounds)) }

	ms("fleet.run_round.ms_p50", "fleet.run_round")
	ms("fleet.round.source_ms_p50", "fleet.round.source")
	ms("fleet.round.control_ms_p50", "fleet.round.control")
	ns("fleet.view_snapshot.ns", "fleet.view_snapshot")
	perRound("fleet.round.hotspots_per_round", "fleet.round.hotspots")
	total("fleet.round.applied_moves", "fleet.round.applied_moves")
	total("fleet.round.stale_hosts", "fleet.round.stale_hosts")
	perRound("fleet.round.drained_per_round", "fleet.round.drained")

	ns("engine.round.ns_per_host", "engine.round")
	perRound("engine.reanchored_per_round", "engine.reanchored")
	total("engine.sessions_live", "engine.sessions_live")
	ns("engine.predict_fresh.ns_per_reading", "engine.predict_fresh")
	ns("engine.observe_batch.ns_per_reading", "engine.observe_batch")

	ns("fleet.ingest_batch.ns_per_reading", "fleet.ingest_batch")
	layer("fleet.ingest_batch.self_ns_per_reading", tr.selfP50(ph, "fleet.ingest_batch", "engine.predict_fresh", true), len(tr.series["fleet.ingest_batch"]))
	total("fleet.stream.deferred", "fleet.stream.deferred")
	total("fleet.stream.hot_drift", "fleet.stream.hot_drift")
	total("fleet.ingest.dropped", "fleet.ingest.dropped")

	layer("anchorcache.hit_ratio", tr.counts["anchor.hits"]/(tr.counts["anchor.hits"]+tr.counts["anchor.misses"]), int(rounds))
	perRound("anchorcache.fanout_per_round", "anchor.fanout")
	total("anchorcache.evicted", "anchorcache.evicted")
	ns("anchorcache.get_ns", "anchorcache.get")
	ns("anchorcache.put_ns", "anchorcache.put")

	ns("core.predict_batch.ns_per_row", "core.predict_batch")
	layer("core.self_ns_per_row", tr.selfP50(ph, "core.predict_batch", "svm.predict_batch", true), len(tr.series["core.predict_batch"]))
	ns("svm.predict_batch.ns_per_row", "svm.predict_batch")

	// Each HTTP handler against the direct call its twin made with the same
	// inputs: what is left is decode, validation and encode.
	residual := 0.0
	for _, ep := range []struct{ name, child string }{
		{"ingest", "fleet.ingest_batch"}, {"stable_batch", "core.predict_batch"}, {"place_batch", "fleet.place_batch"},
	} {
		handler := "predictserver." + ep.name
		ms(handler+".ms_p50", handler)
		self := tr.selfP50(ph, handler, ep.child, false)
		layer(handler+".self_ms_p50", self/1e6, len(tr.series[handler]))
		if whole := tr.p50(ph, handler, false); whole > 0 {
			residual = math.Abs(whole-self-tr.p50(ph, ep.child, false)) / whole
		}
	}
	layer("trace.handler_residual_ratio", residual, 1)
	for _, name := range []string{"predictserver.ingest.req_bytes", "predictserver.ingest.resp_bytes", "predictserver.stable_batch.req_bytes", "checkpoint.bytes", "fleet.place.mean_predicted_c"} {
		layer(name, tr.counts[name], 1)
	}
	layer("fleet.place_batch.us_per_vm", tr.p50(ph, "fleet.place_batch", true)/1e3, len(tr.series["fleet.place_batch"]))
	ns("telemetry.trace_advance.ns_per_reading", "telemetry.trace_advance")
	ms("checkpoint.encode_ms", "checkpoint.encode")

	// Traced over untraced median op time, block against adjacent block.
	ratios := ph.blockP50()
	for b, v := range untraced.blockP50() {
		ratios[b] /= v
	}
	layer("trace.overhead_ratio", median(ratios)-1, blocks)
}

// contractLine is the object the acceptance driver reads from the last line
// of standard output.
type contractLine struct {
	Correct   bool                     `json:"correct"`
	Attempted int64                    `json:"attempted"`
	Failed    int64                    `json:"failed"`
	Metrics   map[string]contractValue `json:"metrics"`
}

type contractValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// contract keeps the metrics BENCHMARK.json promises for this mode: every
// end-to-end metric untraced, every per-layer metric traced.
func (r *result) contract() contractLine {
	list := endToEnd
	if r.Trace {
		list = perLayer
	}
	out := contractLine{Correct: r.Failed == 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: make(map[string]contractValue)}
	for _, m := range list {
		out.Metrics[m.Name] = contractValue{Value: r.Metrics[m.Name].Value, Unit: m.Unit}
	}
	return out
}

func printResult(f *os.File, r *result) {
	fmt.Fprintf(f, "workload %s  seed %d  seconds %g  ops %d (%d blocks x %d)  unit %s  input digest %s\n",
		r.Workload, r.Seed, r.Seconds, r.Ops, blocks, r.Ops/blocks, r.Unit, r.Digest)
	row := func(m metric) {
		v, ok := r.Metrics[m.Name]
		if !ok {
			return
		}
		bound := ""
		if v.Bound != nil {
			bound = "bound " + strconv.FormatFloat(*v.Bound, 'g', -1, 64)
		}
		fmt.Fprintf(f, "  %-42s %16.6g %-6s %-6s %-10s n=%d\n", m.Name, v.Value, v.Unit, v.Better, bound, v.Samples)
	}
	for _, m := range endToEnd {
		row(m)
	}
	for _, m := range perLayer {
		row(m)
	}
	fmt.Fprintf(f, "  attempted %d %ss, failed %d\n", r.Attempted, r.Unit, r.Failed)
	for _, msg := range r.Failures {
		fmt.Fprintln(f, "  FAILED:", msg)
	}
}

func writeJSON(path string, v any) error {
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// rssPeakMB reads the process's peak resident set (VmHWM), 0 where /proc is
// not available.
func rssPeakMB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}

// closeWorkload stops the fixture's server workers, if it has any.
func closeWorkload(w runner) {
	if c, ok := w.(interface{ close() }); ok {
		c.close()
	}
}
