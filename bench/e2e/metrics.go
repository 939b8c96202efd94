package main

// metric names one number the benchmark prints. Bound is the share of the
// parent commit's median by which an end-to-end metric may get worse before
// a change counts as a regression; per-layer metrics have none.
type metric struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
}

// endToEnd is what a user of the system sees, the same names on every
// workload. Times are calibrated (see calib.go). A bound is the issue's where
// the widest run-to-run spread NOISE.md shows for the metric, across seeds,
// stays under two thirds of it, and the issue's cap of 0.15 where it does not.
var endToEnd = []metric{
	{"setup_s", "s", "lower", 0.15},
	{"op_ms_p50", "ms", "lower", 0.15},
	{"op_ms_p90", "ms", "lower", 0.15},
	{"work_per_s", "1/s", "higher", 0.15},
	{"alloc_kb_per_op", "KB", "lower", 0.05},
	{"rss_peak_mb", "MB", "lower", 0.15},
	{"pred_mse_c2", "C2", "lower", 0.02},
}

// failRatio is the eighth end-to-end figure. Its bound is "any rise", and
// it is 0 on every workload, so BENCHMARK.json carries it as the result
// line's attempted/failed counts instead of a bounded metric (the contract
// wants metrics that are never 0) and lists it with the per-layer metrics.
var failRatio = metric{"fail_ratio", "ratio", "lower", 0}

// perLayer is the outside-in ladder, measured only in the traced run. A
// layer that is not on a workload's path reads 0 there.
var perLayer = []metric{
	failRatio,

	{Name: "fleet.run_round.ms_p50", Unit: "ms", Better: "lower"},
	{Name: "fleet.round.source_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "fleet.round.control_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "fleet.view_snapshot.ns", Unit: "ns", Better: "lower"},
	{Name: "fleet.round.hotspots_per_round", Unit: "count", Better: "lower"},
	{Name: "fleet.round.applied_moves", Unit: "count", Better: "higher"},
	{Name: "fleet.round.stale_hosts", Unit: "count", Better: "lower"},
	{Name: "fleet.round.drained_per_round", Unit: "count", Better: "lower"},

	{Name: "engine.round.ns_per_host", Unit: "ns", Better: "lower"},
	{Name: "engine.reanchored_per_round", Unit: "count", Better: "lower"},
	{Name: "engine.sessions_live", Unit: "count", Better: "higher"},
	{Name: "engine.predict_fresh.ns_per_reading", Unit: "ns", Better: "lower"},
	{Name: "engine.observe_batch.ns_per_reading", Unit: "ns", Better: "lower"},

	{Name: "fleet.ingest_batch.ns_per_reading", Unit: "ns", Better: "lower"},
	{Name: "fleet.ingest_batch.self_ns_per_reading", Unit: "ns", Better: "lower"},
	{Name: "fleet.stream.deferred", Unit: "count", Better: "lower"},
	{Name: "fleet.stream.hot_drift", Unit: "count", Better: "lower"},
	{Name: "fleet.ingest.dropped", Unit: "count", Better: "lower"},

	{Name: "anchorcache.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "anchorcache.fanout_per_round", Unit: "count", Better: "lower"},
	{Name: "anchorcache.evicted", Unit: "count", Better: "lower"},
	{Name: "anchorcache.get_ns", Unit: "ns", Better: "lower"},
	{Name: "anchorcache.put_ns", Unit: "ns", Better: "lower"},

	{Name: "core.predict_batch.ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "core.self_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "svm.predict_batch.ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "svm.num_sv", Unit: "count", Better: "lower"},

	{Name: "predictserver.ingest.ms_p50", Unit: "ms", Better: "lower"},
	{Name: "predictserver.ingest.self_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "predictserver.ingest.req_bytes", Unit: "B", Better: "lower"},
	{Name: "predictserver.ingest.resp_bytes", Unit: "B", Better: "lower"},
	{Name: "predictserver.stable_batch.ms_p50", Unit: "ms", Better: "lower"},
	{Name: "predictserver.stable_batch.self_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "predictserver.stable_batch.req_bytes", Unit: "B", Better: "lower"},
	{Name: "predictserver.place_batch.ms_p50", Unit: "ms", Better: "lower"},
	{Name: "predictserver.place_batch.self_ms_p50", Unit: "ms", Better: "lower"},

	{Name: "fleet.place_batch.us_per_vm", Unit: "us", Better: "lower"},
	{Name: "fleet.place.mean_predicted_c", Unit: "C", Better: "lower"},
	{Name: "telemetry.trace_advance.ns_per_reading", Unit: "ns", Better: "lower"},
	{Name: "checkpoint.encode_ms", Unit: "ms", Better: "lower"},
	{Name: "checkpoint.bytes", Unit: "B", Better: "lower"},

	{Name: "runtime.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_pause_ms", Unit: "ms", Better: "lower"},

	// How far to trust the run.
	{Name: "gen.build_us_per_op", Unit: "us", Better: "lower"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "trace.handler_residual_ratio", Unit: "ratio", Better: "lower"},
	{Name: "calib.ref_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "calib.ref_spread", Unit: "ratio", Better: "lower"},
	{Name: "raw.op_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "raw.work_per_s", Unit: "1/s", Better: "higher"},
	{Name: "raw.setup_s", Unit: "s", Better: "lower"},
	{Name: "tail.op_ms_p99", Unit: "ms", Better: "lower"},
}

// value is one measured metric as written to -out.
type value struct {
	Value   float64  `json:"value"`
	Unit    string   `json:"unit"`
	Better  string   `json:"better"`
	Bound   *float64 `json:"bound,omitempty"`
	Samples int      `json:"samples,omitempty"`
}

// result is one run of one workload.
type result struct {
	Workload  string           `json:"workload"`
	Seed      int64            `json:"seed"`
	Seconds   float64          `json:"seconds"`
	Trace     bool             `json:"trace"`
	Ops       int              `json:"ops"`
	Unit      string           `json:"unit"`
	Digest    string           `json:"input_digest"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Failures  []string         `json:"failures,omitempty"`
	Metrics   map[string]value `json:"metrics"`
}

func (r *result) set(m metric, v float64, samples int) {
	out := value{Value: v, Unit: m.Unit, Better: m.Better, Samples: samples}
	if m.Bound > 0 || m.Name == failRatio.Name {
		b := m.Bound
		out.Bound = &b
	}
	r.Metrics[m.Name] = out
}

func findMetric(list []metric, name string) metric {
	for _, m := range list {
		if m.Name == name {
			return m
		}
	}
	panic("bench/e2e: metric " + name + " is not declared in metrics.go")
}
