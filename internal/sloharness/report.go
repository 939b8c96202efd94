package sloharness

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"
)

// Report is the machine-readable output of one harness invocation
// (capacity.json / BENCH_SLO.json): every profiled endpoint × knob
// combination with its full step table.
type Report struct {
	// GeneratedAt is RFC 3339 UTC; Host describes the profiled service
	// ("in-process" or a base URL).
	GeneratedAt string     `json:"generated_at"`
	Host        string     `json:"host"`
	Profiles    []*Profile `json:"profiles"`
}

// NewReport stamps a report for the given host description.
func NewReport(host string) *Report {
	return &Report{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		Host:        host,
	}
}

// WriteJSON emits the report as indented JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// ParseReport reads a report written by WriteJSON (the CI regression gate
// compares a fresh report against a committed baseline).
func ParseReport(rd io.Reader) (*Report, error) {
	var r Report
	if err := json.NewDecoder(rd).Decode(&r); err != nil {
		return nil, fmt.Errorf("sloharness: parsing report: %w", err)
	}
	return &r, nil
}

// Capacity returns the profile matching endpoint and knobs exactly, or nil.
// Knob maps match when they contain the same pairs.
func (r *Report) Capacity(endpoint string, knobs map[string]string) *Profile {
	for _, p := range r.Profiles {
		if p.Endpoint != endpoint || len(p.Knobs) != len(knobs) {
			continue
		}
		same := true
		for k, v := range knobs {
			if p.Knobs[k] != v {
				same = false
				break
			}
		}
		if same {
			return p
		}
	}
	return nil
}

// knobString renders knobs deterministically ("batch=64 budget=5").
func knobString(knobs map[string]string) string {
	if len(knobs) == 0 {
		return "—"
	}
	keys := make([]string, 0, len(knobs))
	for k := range knobs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	s := ""
	for i, k := range keys {
		if i > 0 {
			s += " "
		}
		s += k + "=" + knobs[k]
	}
	return s
}

// WriteMarkdown renders the human CAPACITY.md report: a summary table of
// max sustainable rates, then one SLO step table per profile. The layout is
// stable so regenerated reports diff cleanly.
func (r *Report) WriteMarkdown(w io.Writer) error {
	var err error
	pf := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	pf("# Measured serving capacity\n\n")
	pf("Generated %s against %s by `vmtherm-loadgen`.\n\n", r.GeneratedAt, r.Host)
	pf("Max sustainable RPS is the highest offered rate whose measured window\n")
	pf("satisfied the declared SLO (tail latency at the quantile, error rate\n")
	pf("≤ 1%%, achieved ≥ 90%% of offered). See docs/CAPACITY.md for how to\n")
	pf("read and regenerate this report.\n\n")

	pf("| endpoint | knobs | SLO | max sustainable RPS | items/s |\n")
	pf("|---|---|---|---:|---:|\n")
	for _, p := range r.Profiles {
		pf("| `%s` | %s | %s | %s%.0f | %s%.0f |\n",
			p.Endpoint, knobString(p.Knobs), p.SLOLabel,
			ceilMark(p), p.MaxSustainableRPS, ceilMark(p), p.MaxSustainableItemsPerSec)
	}
	pf("\n")

	for _, p := range r.Profiles {
		pf("## `%s` (%s, SLO %s)\n\n", p.Endpoint, knobString(p.Knobs), p.SLOLabel)
		pf("| offered RPS | achieved | p50 ms | p90 ms | p99 ms | max ms | errors | verdict |\n")
		pf("|---:|---:|---:|---:|---:|---:|---:|---|\n")
		for _, s := range p.Steps {
			verdict := "ok"
			if !s.Sustainable {
				verdict = "VIOLATED (" + s.Violation + ")"
			}
			if s.Refining {
				verdict += " ·refine"
			}
			pf("| %.0f | %.0f | %.2f | %.2f | %.2f | %.2f | %d | %s |\n",
				s.TargetRPS, s.AchievedRPS, s.P50Ms, s.P90Ms, s.P99Ms, s.MaxMs, s.Errors, verdict)
		}
		pf("\n**max sustainable: %s%.0f req/s (%s%.0f items/s)**\n\n",
			ceilMark(p), p.MaxSustainableRPS, ceilMark(p), p.MaxSustainableItemsPerSec)
	}
	return err
}

// ceilMark prefixes "≥ " when the ramp exhausted its ceiling without a
// violation — the number is a floor, not a measured knee.
func ceilMark(p *Profile) string {
	if p.HitCeiling {
		return "≥ "
	}
	return ""
}
