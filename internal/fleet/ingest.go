package fleet

import (
	"sync"
	"sync/atomic"

	"vmtherm/internal/telemetry"
)

// Reading is one telemetry observation of one host, as emitted by a
// monitoring agent. It is the unified telemetry.Reading record — the same
// shape every Source (simulator, trace replay, Prometheus scrape) streams
// into the session engine.
type Reading = telemetry.Reading

// ingestPipeline is the bounded buffer between telemetry producers and the
// control loop, filled in arrival order. Producers push without blocking — a
// reading offered to a full buffer is dropped and counted, never stalling an
// agent — and each round's drain swaps in the slice the previous one
// emptied. The bound keeps a misbehaving producer from growing memory
// without limit (at most 2 × capacity readings exist: one slice filling, one
// draining); the drop and supersede counters make that degradation visible.
type ingestPipeline struct {
	mu       sync.Mutex
	buf      []Reading // guarded by mu; len(buf) ≤ capacity
	capacity int

	received   atomic.Int64
	dropped    atomic.Int64
	superseded atomic.Int64
	// rejected counts readings refused at the door for implausible
	// temperatures (NaN/±Inf/outside the plausibility bounds), per reason:
	// one stuck sensor must never poison a session's calibration, and the
	// refusal must be visible (vmtherm_ingest_rejected_total). Index 0
	// (RejectNone) is unused.
	rejected [telemetry.NumRejectReasons]atomic.Int64
}

// newIngestPipeline bounds the buffer at capacity readings; it grows by append.
func newIngestPipeline(capacity int) *ingestPipeline {
	return &ingestPipeline{capacity: capacity}
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
	p.mu.Lock()
	if len(p.buf) == p.capacity {
		p.mu.Unlock()
		p.dropped.Add(1)
		return false
	}
	p.buf = append(p.buf, r)
	p.mu.Unlock()
	p.received.Add(1)
	return true
}

// take returns the buffered readings, in arrival order, and makes spare (the
// slice the previous take returned, now consumed) the buffer to fill next.
func (p *ingestPipeline) take(spare []Reading) []Reading {
	p.mu.Lock()
	spare, p.buf = p.buf, spare[:0]
	p.mu.Unlock()
	return spare
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

// stats returns cumulative received/dropped/superseded counts.
func (p *ingestPipeline) stats() (received, dropped, superseded int64) {
	return p.received.Load(), p.dropped.Load(), p.superseded.Load()
}
