package predictserver

import (
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"

	"vmtherm/internal/checkpoint"
	"vmtherm/internal/fleet"
	"vmtherm/internal/scenario"
	"vmtherm/internal/telemetry"
)

// boolGauge renders a boolean as a 0/1 gauge value.
func boolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// GET /metrics serves the service's own state in Prometheus text exposition
// format, making vmtherm scrape-able by anything that speaks the format —
// including vmtherm itself: telemetry.ScrapeSource's defaults target exactly
// the per-host gauges exported here, so one controller's published view can
// feed another's ingest (the round-trip the tests pin).
//
// Families:
//
//	vmtherm_sessions                        live dynamic sessions (gauge)
//	vmtherm_sessions_refused_total          creates refused at the session
//	                                        cap (counter)
//	vmtherm_sessions_evicted_total          sessions the idle sweep removed
//	                                        (counter)
//	vmtherm_items_total{kind=...}           successful work items (counter):
//	                                        stable | observe | predict | ingest
//	vmtherm_place_placed_total              placement decisions by status
//	vmtherm_place_queued_total              (counter; fleet-attached servers
//	vmtherm_place_rejected_total            only)
//	vmtherm_place_batch_size                last placement batch size (gauge)
//	vmtherm_ingest_received_total           fleet ingest counters (counter;
//	vmtherm_ingest_dropped_total            fleet-attached servers only)
//	vmtherm_ingest_superseded_total
//	vmtherm_ingest_rejected_total{reason=...}  implausible readings refused
//	                                        (nan | inf | too_cold | too_hot)
//	vmtherm_scenario_active                 scenario engine gauges (flat zero
//	vmtherm_scenario_round                  when no scenario is bound)
//	vmtherm_scenario_faults_active
//	vmtherm_scenario_contained
//	vmtherm_checkpoint_writes_total         durability counters (counter;
//	vmtherm_checkpoint_bytes_total          fleet-attached servers — flat zero
//	vmtherm_checkpoint_restores_total       unless checkpointing is enabled)
//	vmtherm_checkpoint_failures_total
//	vmtherm_ingest_stream_applied_total     streaming-ingest counters (counter;
//	vmtherm_ingest_stream_created_total     fleet-attached servers — flat zero
//	vmtherm_ingest_stream_deferred_total    until the first push)
//	vmtherm_ingest_stream_predictions_total
//	vmtherm_hotspot_staleness_seconds       seconds since the served hotspot
//	                                        set was last refreshed (gauge)
//	vmtherm_anchor_cache_hits_total         ψ_stable anchor cache counters
//	vmtherm_anchor_cache_misses_total       (counter; fleet-attached servers)
//	vmtherm_anchor_cache_evictions_total
//	vmtherm_anchor_cache_invalidations_total
//	vmtherm_anchor_fanout                   last round's anchor miss-batch
//	                                        size fanned through the batch
//	                                        predictor (gauge)
//	vmtherm_fleet_round                     last published control round (gauge)
//	vmtherm_host_temp_celsius{host=...}     newest telemetry per host (gauge)
//	vmtherm_host_util_ratio{host=...}
//	vmtherm_host_mem_ratio{host=...}
//	vmtherm_host_predicted_temp_celsius{host=...}  Δ_gap-ahead prediction
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	var sb strings.Builder

	writeMetric(&sb, "vmtherm_sessions", "gauge", "Live dynamic prediction sessions.", "", float64(s.eng.Len()))
	writeMetric(&sb, "vmtherm_sessions_refused_total", "counter",
		"Session creates refused with 429 at the live-session cap.", "", float64(s.metrics.sessionsRefused.Load()))
	writeMetric(&sb, "vmtherm_sessions_evicted_total", "counter",
		"Sessions removed by the idle sweep after 900 s of server time unobserved and unpredicted.", "", float64(s.metrics.sessionsEvicted.Load()))
	sb.WriteString("# HELP vmtherm_items_total Work items served, by kind.\n# TYPE vmtherm_items_total counter\n")
	writeSample(&sb, "vmtherm_items_total", `kind="stable"`, float64(s.metrics.stableItems.Load()))
	writeSample(&sb, "vmtherm_items_total", `kind="observe"`, float64(s.metrics.observeItems.Load()))
	writeSample(&sb, "vmtherm_items_total", `kind="predict"`, float64(s.metrics.predictItems.Load()))
	writeSample(&sb, "vmtherm_items_total", `kind="ingest"`, float64(s.metrics.ingestItems.Load()))

	if s.fleet != nil {
		writeMetric(&sb, "vmtherm_place_placed_total", "counter",
			"Placement decisions that landed a VM (single + batch endpoints).", "", float64(s.metrics.placePlaced.Load()))
		writeMetric(&sb, "vmtherm_place_queued_total", "counter",
			"Placement decisions parked on the admission queue.", "", float64(s.metrics.placeQueued.Load()))
		writeMetric(&sb, "vmtherm_place_rejected_total", "counter",
			"Placement decisions refused with a typed reject code.", "", float64(s.metrics.placeRejected.Load()))
		writeMetric(&sb, "vmtherm_place_batch_size", "gauge",
			"Size of the last placement batch served.", "", float64(s.metrics.placeBatchSize.Load()))

		received, dropped, superseded := s.fleet.IngestStats()
		writeMetric(&sb, "vmtherm_ingest_received_total", "counter",
			"Telemetry readings accepted: source readings admitted plus pushes buffered.", "", float64(received))
		writeMetric(&sb, "vmtherm_ingest_dropped_total", "counter",
			"Telemetry readings dropped past a round's source budget or at the full push buffer.", "", float64(dropped))
		writeMetric(&sb, "vmtherm_ingest_superseded_total", "counter",
			"Drained readings superseded by newer ones before use.", "", float64(superseded))

		byReason, _ := s.fleet.IngestRejected()
		sb.WriteString("# HELP vmtherm_ingest_rejected_total Telemetry readings rejected as implausible, by reason.\n# TYPE vmtherm_ingest_rejected_total counter\n")
		for reason := telemetry.RejectNone + 1; reason < telemetry.NumRejectReasons; reason++ {
			writeSample(&sb, "vmtherm_ingest_rejected_total",
				`reason="`+reason.String()+`"`, float64(byReason[reason]))
		}

		// The scenario gauges are part of the stable exposition on every
		// fleet-attached server: flat zero when no scenario engine is bound,
		// so dashboards and alerts need no conditional scrape config.
		var st scenario.Status
		if s.scenario != nil {
			st = s.scenario()
		}
		writeMetric(&sb, "vmtherm_scenario_active", "gauge",
			"1 while a scripted thermal-emergency scenario is running.", "", boolGauge(st.Active))
		writeMetric(&sb, "vmtherm_scenario_round", "gauge",
			"Rounds completed by the running scenario.", "", float64(st.Round))
		writeMetric(&sb, "vmtherm_scenario_faults_active", "gauge",
			"Fault conditions currently injected by the scenario.", "", float64(st.FaultsActive))
		writeMetric(&sb, "vmtherm_scenario_contained", "gauge",
			"1 once a past emergency's hotspot set has returned to empty.", "", boolGauge(st.Contained))

		// Checkpoint counters are part of the stable exposition on every
		// fleet-attached server: flat zero when checkpointing is disabled, so
		// durability dashboards need no conditional scrape config.
		var ck checkpoint.Status
		if s.ckptStatus != nil {
			ck = s.ckptStatus()
		}
		writeMetric(&sb, "vmtherm_checkpoint_writes_total", "counter",
			"Checkpoint generations written successfully.", "", float64(ck.Writes))
		writeMetric(&sb, "vmtherm_checkpoint_bytes_total", "counter",
			"Bytes written across all successful checkpoints.", "", float64(ck.BytesWritten))
		writeMetric(&sb, "vmtherm_checkpoint_restores_total", "counter",
			"Successful restores from a checkpoint at startup.", "", float64(ck.Restores))
		writeMetric(&sb, "vmtherm_checkpoint_failures_total", "counter",
			"Checkpoint write or restore failures (corrupt files, I/O errors).", "", float64(ck.Failures))

		applied, created, deferred, predictions := s.fleet.StreamTotals()
		writeMetric(&sb, "vmtherm_ingest_stream_applied_total", "counter",
			"Pushed readings applied to their session on arrival.", "", float64(applied))
		writeMetric(&sb, "vmtherm_ingest_stream_created_total", "counter",
			"Sessions created inline from the warm anchor cache on arrival.", "", float64(created))
		writeMetric(&sb, "vmtherm_ingest_stream_deferred_total", "counter",
			"Pushed readings deferred to the next batch round (no session, no warm anchor).", "", float64(deferred))
		writeMetric(&sb, "vmtherm_ingest_stream_predictions_total", "counter",
			"Synchronous predictions returned on the ingest path (predict: true).", "", float64(predictions))
		writeMetric(&sb, "vmtherm_hotspot_staleness_seconds", "gauge",
			"Seconds since the served hotspot set was last refreshed (by a pushed reading or by a round, whichever came last).", "", s.fleet.HotspotStalenessS())

		cacheStats, fanout := s.fleet.AnchorCacheStats()
		writeMetric(&sb, "vmtherm_anchor_cache_hits_total", "counter",
			"Anchor-cache hits: hosts whose stable anchor was served from the quantized cache.", "", float64(cacheStats.Hits))
		writeMetric(&sb, "vmtherm_anchor_cache_misses_total", "counter",
			"Anchor-cache misses: hosts whose stable anchor went through the batch predictor.", "", float64(cacheStats.Misses))
		writeMetric(&sb, "vmtherm_anchor_cache_evictions_total", "counter",
			"Anchor-cache entries dropped at the size bound.", "", float64(cacheStats.Evicted))
		writeMetric(&sb, "vmtherm_anchor_cache_invalidations_total", "counter",
			"Anchor-cache epoch bumps (model/config change).", "", float64(cacheStats.Invalidations))
		writeMetric(&sb, "vmtherm_anchor_fanout", "gauge",
			"Anchor miss-batch size fanned through the batch predictor last round.", "", float64(fanout))

		// Scoped zero-copy borrow of the columns (the legacy maps stay
		// unfilled): the whole exposition is rendered inside the view (into
		// the local builder), so nothing from the snapshot outlives it and
		// the generation recycles instead of being cloned per scrape.
		s.fleet.ViewColumns(func(snap *fleet.Snapshot) {
			writeMetric(&sb, "vmtherm_fleet_round", "gauge", "Last published control round.", "", float64(snap.Round))
			// The per-host families walk the columns in id order; the
			// predicted family omits stale and unpredicted (NaN) hosts.
			writeHosts := func(name, help string, value func(h *fleet.HostView) (float64, bool)) {
				sb.WriteString("# HELP " + name + " " + help + "\n# TYPE " + name + " gauge\n")
				for k := range snap.Len() {
					if h := snap.At(k); h.HasLatest {
						if v, ok := value(&h); ok {
							writeSample(&sb, name, hostLabel(h.ID), v)
						}
					}
				}
			}
			writeHosts("vmtherm_host_temp_celsius", "Newest sensed CPU temperature per host.",
				func(h *fleet.HostView) (float64, bool) { return h.Latest.TempC, true })
			writeHosts("vmtherm_host_util_ratio", "Newest CPU utilization per host.",
				func(h *fleet.HostView) (float64, bool) { return h.Latest.Util, true })
			writeHosts("vmtherm_host_mem_ratio", "Newest memory activity per host.",
				func(h *fleet.HostView) (float64, bool) { return h.Latest.MemFrac, true })
			writeHosts("vmtherm_host_predicted_temp_celsius", "Predicted temperature gap seconds ahead (stale hosts omitted).",
				func(h *fleet.HostView) (float64, bool) { return h.PredictedC, !math.IsNaN(h.PredictedC) })
		})
	}

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write([]byte(sb.String()))
}

// writeMetric emits HELP/TYPE plus one sample.
func writeMetric(sb *strings.Builder, name, typ, help, labels string, v float64) {
	fmt.Fprintf(sb, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
	writeSample(sb, name, labels, v)
}

// writeSample emits one `name{labels} value` line.
func writeSample(sb *strings.Builder, name, labels string, v float64) {
	sb.WriteString(name)
	if labels != "" {
		sb.WriteByte('{')
		sb.WriteString(labels)
		sb.WriteByte('}')
	}
	sb.WriteByte(' ')
	sb.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
	sb.WriteByte('\n')
}

// labelEscaper applies exposition-format label-value escaping.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// hostLabel renders the host label pair with exposition-format escaping.
func hostLabel(id string) string {
	return `host="` + labelEscaper.Replace(id) + `"`
}
