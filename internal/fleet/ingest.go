package fleet

import (
	"sync/atomic"

	"vmtherm/internal/telemetry"
)

// Reading is one telemetry observation of one host, as emitted by a
// monitoring agent. It is the unified telemetry.Reading record — the same
// shape every Source (simulator, trace replay, Prometheus scrape) streams
// into the session engine.
type Reading = telemetry.Reading

// ingestPipeline is the bounded buffer between telemetry producers and the
// control loop. Producers push without blocking — when the buffer is full
// the reading is dropped and counted, never stalling an agent — and the
// controller drains everything buffered at the start of each round. The
// bound is what keeps a misbehaving producer from growing memory without
// limit; the drop and supersede counters are what make that degradation
// visible.
type ingestPipeline struct {
	ch         chan Reading
	received   atomic.Int64
	dropped    atomic.Int64
	superseded atomic.Int64
	// rejected counts readings refused at the door for implausible
	// temperatures (NaN/±Inf/outside the plausibility bounds), per reason:
	// one stuck sensor must never poison a session's calibration, and the
	// refusal must be visible (vmtherm_ingest_rejected_total). Index 0
	// (RejectNone) is unused.
	rejected [telemetry.NumRejectReasons]atomic.Int64
	// drainSeen marks hosts whose latest entry was written during the
	// current drain, so supersessions within one round are counted. Owned by
	// the draining goroutine (drains are serialized by the round lock) and
	// reused across rounds — clearing a map allocates nothing.
	drainSeen map[string]bool
}

// newIngestPipeline sizes the buffered channel to capacity and pre-sizes
// the drain's supersede-tracking map from the expected host population, so
// a cold start's first drains do not rehash the map up to fleet size.
func newIngestPipeline(capacity, hostHint int) *ingestPipeline {
	return &ingestPipeline{
		ch:        make(chan Reading, capacity),
		drainSeen: make(map[string]bool, hostHint),
	}
}

// push offers a reading; it reports false when the reading was refused —
// rejected for an implausible temperature (counted per reason) or dropped
// because the buffer is full (counted as a drop). Validation lives here,
// at the single choke point every producer path (simulator sweep, trace
// replay, scrape, HTTP push) flows through.
func (p *ingestPipeline) push(r Reading) bool {
	if reason := telemetry.ClassifyTemp(r.TempC); reason != telemetry.RejectNone {
		p.rejected[reason].Add(1)
		return false
	}
	select {
	case p.ch <- r:
		p.received.Add(1)
		return true
	default:
		p.dropped.Add(1)
		return false
	}
}

// countRejected records a rejection decided by a caller that classified
// the reading itself (the streaming batch path, which needs the typed
// outcome before push would see the reading).
func (p *ingestPipeline) countRejected(reason telemetry.RejectReason) {
	p.rejected[reason].Add(1)
}

// rejectedByReason returns the cumulative per-reason rejection counters.
func (p *ingestPipeline) rejectedByReason() (out [telemetry.NumRejectReasons]int64) {
	for i := range out {
		out[i] = p.rejected[i].Load()
	}
	return out
}

// drainInto moves every buffered reading into latest, keeping only the
// newest reading per host, and returns how many readings were consumed plus
// whether any reading introduced a previously untracked host (the
// membership-dirty signal that tells the controller its sorted host order
// must be rebuilt). Consumed readings that never become a host's latest —
// because a newer reading already drained, or an even newer one arrives
// later in the same drain — are counted as superseded: the ingest-pressure
// signal that says producers are sampling faster than the control loop
// consumes.
func (p *ingestPipeline) drainInto(latest map[string]Reading) (n int, newHosts bool) {
	clear(p.drainSeen)
	for {
		select {
		case r := <-p.ch:
			n++
			cur, known := latest[r.HostID]
			if known && r.AtS < cur.AtS {
				p.superseded.Add(1)
				continue
			}
			if !known {
				newHosts = true
			}
			if p.drainSeen[r.HostID] {
				// The entry written earlier this drain never left the round.
				p.superseded.Add(1)
			}
			p.drainSeen[r.HostID] = true
			latest[r.HostID] = r
		default:
			return n, newHosts
		}
	}
}

// stats returns cumulative received/dropped/superseded counts.
func (p *ingestPipeline) stats() (received, dropped, superseded int64) {
	return p.received.Load(), p.dropped.Load(), p.superseded.Load()
}
