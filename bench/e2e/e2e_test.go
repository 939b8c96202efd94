package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

// The reference kernel divides every gated time; changing what it computes
// silently rescales every baseline. This pins it, and that it stays out of
// the allocator (it runs between blocks whose allocations are measured).
func TestCalibChecksum(t *testing.T) {
	const want = 3.273148058297e+09
	if got := calib(1); math.Abs(got-want) > 1e-3 {
		t.Fatalf("calib(1) = %.12e, want %.12e: the reference kernel changed", got, want)
	}
	if n := testing.AllocsPerRun(2, func() { calibSink = calib(8) }); n != 0 {
		t.Errorf("calib allocates %v times per run, want 0", n)
	}
}

func TestCalibrationArithmetic(t *testing.T) {
	nominal := time.Duration(calibNominalS * float64(time.Second))
	if f := speedFactor(nominal, nominal); math.Abs(f-1) > 1e-12 {
		t.Errorf("factor at the nominal reference time = %v, want 1", f)
	}
	// A block bracketed by a nominal and a 3x-slow reference ran, on average,
	// on a host half as fast: its wall time counts half.
	if f := speedFactor(nominal, 3*nominal); math.Abs(f-0.5) > 1e-12 {
		t.Errorf("factor bracketed by 1x and 3x = %v, want 0.5", f)
	}

	ph := &phase{perBlock: 2, opNs: []int64{1e6, 3e6, 2e6, 4e6}}
	for b := range ph.refNs {
		ph.refNs[b] = [2]int64{int64(nominal), int64(nominal)}
	}
	ph.refNs[0][1] = int64(2 * nominal)                            // the host slowed during block 0,
	ph.refNs[1] = [2]int64{int64(2 * nominal), int64(2 * nominal)} // ran block 1 at half speed,
	ph.refNs[2][0] = int64(2 * nominal)                            // and recovered during block 2
	// Block 0 (ops of 1 and 3 ms) is bracketed by 1x and 2x: factor 2/3.
	// Block 1 (ops of 2 and 4 ms) by 2x and 2x: factor 1/2.
	want := []float64{1 * 2.0 / 3, 2 * 0.5, 3 * 2.0 / 3, 4 * 0.5}
	got := ph.opMs(false)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Errorf("calibrated op times, ascending = %v ms, want %v", got, want)
			break
		}
	}
	// Every block did 6 ms of work; all but the three slow-bracketed ones
	// count in full, so the median block does.
	for b := range ph.workNs {
		ph.workNs[b] = 6e6
	}
	if s := ph.blockS(false); math.Abs(s-0.006) > 1e-12 {
		t.Errorf("median calibrated block = %v s, want 0.006", s)
	}
	if raw := ph.opMs(true); raw[0] != 1 || raw[3] != 4 {
		t.Errorf("raw op times = %v, want 1..4 ms", raw)
	}
}

func TestPercentileIndexing(t *testing.T) {
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{0.5, 5}, {0.9, 9}, {0.99, 10}, {0.01, 1}, {1, 10}} {
		if got := percentile(ten, c.p); got != c.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 0.9); got != 7 {
		t.Errorf("percentile of one sample = %v, want 7", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
}

// quartiles must be the rule the acceptance driver uses:
// statistics.quantiles(values, n=4), default (exclusive) method.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
	} {
		q1, q2, q3 := quartiles(c.in)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

type smokeKey struct {
	workload string
	seed     int64
	trace    int
}

var smokeRuns = map[smokeKey]*result{}

// smokeRun runs one workload on the smoke fixtures. Results are shared
// between tests unless fresh is set.
func smokeRun(t *testing.T, workload string, seed int64, trace int, fresh bool) *result {
	t.Helper()
	key := smokeKey{workload, seed, trace}
	if res, ok := smokeRuns[key]; ok && !fresh {
		return res
	}
	res, _, err := measure(options{workload: workload, seed: seed, seconds: 0.16, trace: trace, smoke: true})
	if err != nil {
		t.Fatalf("%s seed %d trace %d: %v", workload, seed, trace, err)
	}
	if res.Failed != 0 {
		t.Fatalf("%s seed %d trace %d: %d of %d units failed: %v", workload, seed, trace, res.Failed, res.Attempted, res.Failures)
	}
	smokeRuns[key] = res
	return res
}

// Same seed, same inputs, same quality and counts — bit for bit; another
// seed, other inputs.
func TestWorkloadsAreDeterministic(t *testing.T) {
	for i := range specs {
		name := specs[i].name
		t.Run(name, func(t *testing.T) {
			a, b, c := smokeRun(t, name, 2016, 0, false), smokeRun(t, name, 2016, 0, true), smokeRun(t, name, 7, 0, false)
			mse := func(r *result) float64 { return r.Metrics["pred_mse_c2"].Value }
			if a.Digest != b.Digest || a.Ops != b.Ops || a.Attempted != b.Attempted || a.Failed != b.Failed ||
				math.Float64bits(mse(a)) != math.Float64bits(mse(b)) {
				t.Errorf("two runs at seed 2016 differ:\n digest %s / %s, ops %d / %d, attempted %d / %d, pred_mse_c2 %v / %v",
					a.Digest, b.Digest, a.Ops, b.Ops, a.Attempted, b.Attempted, mse(a), mse(b))
			}
			if a.Digest == c.Digest {
				t.Errorf("seed 7 produced the inputs of seed 2016 (digest %s)", a.Digest)
			}
			if mse(a) == mse(c) {
				t.Errorf("seed 7 produced the pred_mse_c2 of seed 2016 (%v)", mse(a))
			}
			if a.Ops != c.Ops {
				t.Errorf("op count depends on the seed: %d at 2016, %d at 7", a.Ops, c.Ops)
			}
			if !(mse(a) > 0) || a.Attempted == 0 {
				t.Errorf("pred_mse_c2 %v over %d attempted units: the workload scored nothing", mse(a), a.Attempted)
			}
		})
	}
}

type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// BENCHMARK.json and the binary must name the same workloads and metrics,
// with the same units, directions and bounds, and the binary must emit every
// one of them in the mode the contract says.
func TestBenchmarkJSONMatchesBinary(t *testing.T) {
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	var bj benchmarkJSON
	if err := dec.Decode(&bj); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

	if len(bj.Paths) != 1 || bj.Paths[0] != "bench/e2e" {
		t.Errorf("paths = %v, want [bench/e2e]", bj.Paths)
	}
	if got := strings.Join(bj.Command, " "); got != "go run ./bench/e2e" {
		t.Errorf("command = %q", got)
	}
	if bj.RunSeconds < 1 || bj.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", bj.RunSeconds)
	}
	if len(bj.Workloads) != len(specs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the binary", len(bj.Workloads), len(specs))
	}
	for i, w := range bj.Workloads {
		if w.Name != specs[i].name || w.Why != specs[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the binary %q (%q)", i, w.Name, w.Why, specs[i].name, specs[i].why)
		}
		if !name.MatchString(w.Name) || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: name or why outside the contract's limits", w.Name)
		}
	}
	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end_to_end metrics in BENCHMARK.json, %d in the binary", len(bj.EndToEnd), len(endToEnd))
	}
	for i, m := range bj.EndToEnd {
		if want := endToEnd[i]; m.Name != want.Name || m.Unit != want.Unit || m.Better != want.Better || m.Bound != want.Bound {
			t.Errorf("end_to_end %d: BENCHMARK.json has %+v, the binary %+v", i, m, want)
		}
		if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end %q: outside the contract's limits", m.Name)
		}
		// The issue's cap, and the contract's rule that set-up has the
		// widest bound.
		if m.Bound > 0.15 || m.Bound > bj.EndToEnd[0].Bound {
			t.Errorf("end_to_end %q: bound %v is past 0.15 or past %s's", m.Name, m.Bound, bj.EndToEnd[0].Name)
		}
	}
	if len(bj.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("%d per_layer metrics in BENCHMARK.json, %d in the binary", len(bj.PerLayer), len(perLayer))
	}
	seen := map[string]bool{}
	for i, m := range bj.PerLayer {
		if want := perLayer[i]; m.Name != want.Name || m.Unit != want.Unit || m.Better != want.Better {
			t.Errorf("per_layer %d: BENCHMARK.json has %+v, the binary %+v", i, m, want)
		}
		if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) {
			t.Errorf("per_layer %q: outside the contract's limits", m.Name)
		}
		seen[m.Name] = true
	}
	for _, m := range bj.EndToEnd {
		if seen[m.Name] {
			t.Errorf("metric name %q used twice", m.Name)
		}
		seen[m.Name] = true
	}

	// The result line carries exactly the promised names, per mode, on every
	// workload — and nothing else.
	for i := range specs {
		for trace, list := range [][]metric{endToEnd, perLayer} {
			line := smokeRun(t, specs[i].name, 2016, trace, false).contract()
			if len(line.Metrics) != len(list) {
				t.Errorf("%s -trace %d: %d metrics on the result line, want %d", specs[i].name, trace, len(line.Metrics), len(list))
			}
			for _, m := range list {
				v, ok := line.Metrics[m.Name]
				if !ok || v.Unit != m.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s -trace %d: metric %s missing or malformed on the result line: %+v", specs[i].name, trace, m.Name, v)
				}
			}
			if !line.Correct || line.Attempted < 1 || line.Failed != 0 {
				t.Errorf("%s -trace %d: result line %+v", specs[i].name, trace, line)
			}
		}
	}
}

// Each workload's traced run must enter the layers the README says are on
// its path.
func TestTracedRunReachesItsLayers(t *testing.T) {
	onPath := map[string][]string{
		"round_sim4k":    {"fleet.run_round.ms_p50", "fleet.round.source_ms_p50", "engine.round.ns_per_host", "core.predict_batch.ns_per_row", "svm.predict_batch.ns_per_row"},
		"round_trace4k":  {"fleet.run_round.ms_p50", "engine.round.ns_per_host", "anchorcache.get_ns", "anchorcache.put_ns", "telemetry.trace_advance.ns_per_reading", "checkpoint.encode_ms", "checkpoint.bytes"},
		"stream_fresh4k": {"predictserver.ingest.ms_p50", "predictserver.ingest.req_bytes", "fleet.ingest_batch.ns_per_reading", "engine.predict_fresh.ns_per_reading", "engine.observe_batch.ns_per_reading", "fleet.run_round.ms_p50"},
		"sched_stable":   {"predictserver.stable_batch.ms_p50", "predictserver.stable_batch.req_bytes", "core.predict_batch.ns_per_row", "svm.predict_batch.ns_per_row"},
		"sched_place":    {"predictserver.place_batch.ms_p50", "fleet.place_batch.us_per_vm", "fleet.place.mean_predicted_c", "fleet.run_round.ms_p50"},
	}
	for name, metrics := range onPath {
		res := smokeRun(t, name, 2016, 1, false)
		for _, m := range metrics {
			if !(res.Metrics[m].Value > 0) {
				t.Errorf("%s: layer metric %s = %v, want > 0", name, m, res.Metrics[m].Value)
			}
		}
	}
}
