// Package telemetry is the data path into the predictor: the unified
// Reading every producer emits, the Source interface the fleet controller
// advances once per control round, and the two external sources behind
// `-source trace|scrape` — deterministic replay of a recorded trace
// (TraceSource, with the Recorder that captures one) and live scraping of a
// Prometheus text exposition (ScrapeSource and its parser) — plus the
// temperature plausibility gate (ClassifyTemp) ingest applies to readings
// from outside the process. The simulated fleet implements Source inside
// internal/fleet. The paper's pipeline "received data collected online and
// output prediction values"; Source is where that data arrives.
package telemetry

import (
	"fmt"
	"math"
	"sort"
)

// Reading is one telemetry observation of one host — the unified record that
// flows from every Source into the session engine, whether it was produced
// by the fleet simulator, replayed from a recorded trace, or scraped off a
// Prometheus exporter. It merges what fleet monitoring agents report
// (temperature + load) into the shape the paper's pipeline consumes: "the
// model received data collected online and output prediction values".
type Reading struct {
	// HostID names the observed host.
	HostID string
	// AtS is the observation time in source seconds (simulation time for the
	// simulator, trace time for replay, seconds since the scraper's epoch for
	// live exporters).
	AtS float64
	// TempC is the sensed CPU temperature.
	TempC float64
	// Util is host CPU utilization in [0, 1].
	Util float64
	// MemFrac is host memory activity in [0, 1].
	MemFrac float64
}

// Source is a pluggable stream of host telemetry, driven in control rounds.
// One interface covers three very different producers:
//
//   - the fleet simulator (synthetic physics, simulation clock),
//   - deterministic trace replay (recorded experiments, trace clock),
//   - live Prometheus-exposition scraping (real exporters, wall clock).
//
// The controller advances the source by Δ_update each round and treats
// whatever the source emitted as that round's telemetry; staleness, drops
// and degradation are handled downstream, identically for every source.
//
// Implementations need not be safe for concurrent use; the controller
// serializes Advance with its round lock.
type Source interface {
	// Name identifies the source kind ("sim", "trace", "scrape").
	Name() string
	// NowS reports the source clock after the last Advance, in seconds.
	NowS() float64
	// Advance moves the source forward by dtS seconds of source time,
	// calling emit for every reading produced in that window. emit reports
	// false when the reading was dropped (e.g. a full ingest buffer); the
	// source must keep going — drop accounting is the consumer's job.
	// Real-time sources (scrape) follow their own clock and may ignore dtS.
	Advance(dtS float64, emit func(Reading) bool) error
}

// Recorder is a Source sink that retains every reading it is offered, in
// order — the tee used to capture a simulator or scrape run as a replayable
// trace.
type Recorder struct {
	Readings []Reading
}

// Emit appends a reading; it always accepts. Pass method value
// (*Recorder).Emit wherever an emit func is expected.
func (r *Recorder) Emit(reading Reading) bool {
	r.Readings = append(r.Readings, reading)
	return true
}

// SortReadings orders readings by time, then host id — the canonical trace
// order (stable across map-iteration nondeterminism in producers).
func SortReadings(rs []Reading) {
	sort.SliceStable(rs, func(i, j int) bool {
		if rs[i].AtS != rs[j].AtS {
			return rs[i].AtS < rs[j].AtS
		}
		return rs[i].HostID < rs[j].HostID
	})
}

// ValidateReading rejects readings that cannot be ingested.
func ValidateReading(r Reading) error {
	if r.HostID == "" {
		return fmt.Errorf("telemetry: reading missing host id")
	}
	return nil
}

// Plausibility bounds for sensed CPU temperatures: anything outside is a
// sensor fault (stuck register, wild bias, dead exporter), not physics,
// and must never reach a session's calibrator.
const (
	MinPlausibleTempC = -40
	MaxPlausibleTempC = 150
)

// RejectReason classifies an implausible temperature reading. RejectNone
// (the zero value) means the reading is usable; the other reasons are the
// fixed label set behind vmtherm_ingest_rejected_total{reason}.
type RejectReason uint8

const (
	RejectNone RejectReason = iota
	RejectNaN
	RejectInf
	RejectTooCold
	RejectTooHot
	// NumRejectReasons sizes per-reason counter arrays.
	NumRejectReasons
)

// String returns the metric-label spelling of the reason ("" for none).
func (r RejectReason) String() string {
	switch r {
	case RejectNaN:
		return "nan"
	case RejectInf:
		return "inf"
	case RejectTooCold:
		return "too_cold"
	case RejectTooHot:
		return "too_hot"
	}
	return ""
}

// ClassifyTemp classifies a sensed temperature against the plausibility
// bounds. Branch-only: safe on allocation-free hot paths.
func ClassifyTemp(tempC float64) RejectReason {
	switch {
	case math.IsNaN(tempC):
		return RejectNaN
	case math.IsInf(tempC, 0):
		return RejectInf
	case tempC < MinPlausibleTempC:
		return RejectTooCold
	case tempC > MaxPlausibleTempC:
		return RejectTooHot
	}
	return RejectNone
}

// Clamp01 clamps a ratio into [0, 1]; NaN (e.g. from a degenerate exporter
// sample) maps to 0 rather than propagating through predictions.
func Clamp01(v float64) float64 {
	if v < 0 || math.IsNaN(v) {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
