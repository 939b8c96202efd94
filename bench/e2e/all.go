package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// runChild measures one workload in a child process of its own, so heap
// state, GC pacing and the peak-RSS mark never leak from one workload into
// the next, and returns the child's full result. The child's own table and
// result line go to progress.
func runChild(o options, workload string, seed int64, progress *os.File) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	// The child writes its -out to a pipe it inherits as descriptor 3, so
	// nothing is left on disk.
	r, w, err := os.Pipe()
	if err != nil {
		return nil, err
	}
	defer r.Close()
	args := []string{
		"-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
		"-trace", strconv.Itoa(o.trace), "-out", "/dev/fd/3",
	}
	if o.spans != "" {
		args = append(args, "-spans", o.spans+"."+workload)
	}
	cmd := exec.Command(self, args...)
	cmd.Stdout = progress
	cmd.Stderr = os.Stderr
	cmd.ExtraFiles = []*os.File{w}
	err = cmd.Start()
	w.Close()
	if err != nil {
		return nil, err
	}
	raw, readErr := io.ReadAll(r)
	if err := cmd.Wait(); err != nil {
		return nil, fmt.Errorf("workload %s: %w", workload, err)
	}
	if readErr != nil {
		return nil, readErr
	}
	res := new(result)
	if err := json.Unmarshal(raw, res); err != nil {
		return nil, fmt.Errorf("workload %s: reading its result: %w", workload, err)
	}
	return res, nil
}

// runSet runs every workload once at one seed.
func runSet(o options, seed int64, progress *os.File) (map[string]*result, error) {
	set := make(map[string]*result, len(specs))
	for i := range specs {
		res, err := runChild(o, specs[i].name, seed, progress)
		if err != nil {
			return nil, err
		}
		set[specs[i].name] = res
	}
	return set, nil
}

// runAll is -workload all: one set, each workload's table as it finishes,
// then one JSON object of contract lines keyed by workload.
func runAll(o options) error {
	set, err := runSet(o, o.seed, os.Stdout)
	if err != nil {
		return err
	}
	if o.out != "" {
		if err := writeJSON(o.out, set); err != nil {
			return err
		}
	}
	lines := make(map[string]contractLine, len(set))
	for name, res := range set {
		lines[name] = res.contract()
	}
	line, err := json.Marshal(lines)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// runAA is -aa N: N full sets back to back on unchanged code and unchanged
// inputs (one seed), so whatever differs between them is the measurement. For
// each end-to-end metric of each workload it prints the per-set values, their
// quartiles and the largest deviation of any set from the median as a share
// of the median, which must stay inside the metric's bound. The raw
// (uncalibrated) twins of the time metrics are printed beside them.
func runAA(o options) error {
	sets := make([]map[string]*result, o.aa)
	for i := range sets {
		fmt.Fprintf(os.Stderr, "== set %d of %d\n", i+1, o.aa)
		var err error
		if sets[i], err = runSet(o, o.seed, os.Stderr); err != nil {
			return err
		}
	}
	if o.out != "" {
		if err := writeJSON(o.out, sets); err != nil {
			return err
		}
	}
	raws := map[string]string{"op_ms_p50": "raw.op_ms_p50", "work_per_s": "raw.work_per_s", "setup_s": "raw.setup_s"}
	rows := append(append([]metric(nil), endToEnd...),
		findMetric(perLayer, "tail.op_ms_p99"), findMetric(perLayer, "calib.ref_ms_p50"), findMetric(perLayer, "calib.ref_spread"))
	over := 0
	fmt.Printf("A/A: %d sets of %d workloads, -seconds %g, seed %d, unchanged code\n", o.aa, len(specs), o.seconds, o.seed)
	fmt.Println("quartiles as Python's statistics.quantiles(n=4) gives them; max dev = largest |value - median| / median")
	for i := range specs {
		name := specs[i].name
		fmt.Printf("\n%s\n", name)
		fmt.Printf("  %-20s %12s %12s %12s %8s %6s  %-5s %s\n", "metric", "q1", "median", "q3", "max dev", "bound", "", "per-set values")
		for _, m := range rows {
			line := func(label, key string, bound float64) {
				vals := make([]float64, len(sets))
				for k, set := range sets {
					vals[k] = set[name].Metrics[key].Value
				}
				q1, q2, q3 := quartiles(vals)
				dev, verdict := 0.0, ""
				for _, v := range vals {
					dev = max(dev, math.Abs(v-q2)/math.Abs(q2))
				}
				if bound > 0 {
					verdict = "ok"
					if dev > bound {
						verdict = "OVER"
						over++
					}
				}
				fmt.Printf("  %-20s %12.6g %12.6g %12.6g %8.4f %6.2g  %-5s %s\n", label, q1, q2, q3, dev, bound, verdict, formatVals(vals))
			}
			line(m.Name, m.Name, m.Bound)
			if raw, ok := raws[m.Name]; ok {
				line("  uncalibrated", raw, 0)
			}
		}
		failed := int64(0)
		for _, set := range sets {
			failed += set[name].Failed
		}
		fmt.Printf("  failed units over all sets: %d\n", failed)
	}
	if over > 0 {
		return fmt.Errorf("%d metric x workload pairs deviate by more than their bound", over)
	}
	fmt.Println("\nevery metric of every workload stays within its bound")
	return nil
}

func formatVals(vals []float64) string {
	out := make([]string, len(vals))
	for i, v := range vals {
		out[i] = strconv.FormatFloat(v, 'g', 5, 64)
	}
	return strings.Join(out, " ")
}
