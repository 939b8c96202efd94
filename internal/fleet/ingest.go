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

// ingestPipeline is the bounded buffer between HTTP pushes and the control
// loop, filled in arrival order, and the ingest counters of pushes and source
// readings alike (a source's readings go straight into the host table).
// Producers push without blocking — a reading offered to a full buffer is
// dropped and counted, never stalling an agent — and each round's drain
// swaps in the slice the previous one emptied, so at most 2 × capacity
// readings exist; the drop and supersede counters make that degradation
// visible.
type ingestPipeline struct {
	mu       sync.Mutex
	buf      []Reading // guarded by mu; len(buf) ≤ capacity
	spare    []Reading // what the last take returned; only take touches it
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

// push offers one reading already classified plausible: it is appended and
// counted received when the buffer has room, else dropped and counted. It
// reports whether the reading was accepted.
func (p *ingestPipeline) push(r Reading) bool {
	p.mu.Lock()
	ok := len(p.buf) < p.capacity
	if ok {
		p.buf = append(p.buf, r)
	}
	p.mu.Unlock()
	if ok {
		p.received.Add(1)
	} else {
		p.dropped.Add(1)
	}
	return ok
}

// take returns the buffered readings, in arrival order, and makes the slice
// the previous take returned (consumed by now) the buffer to fill next. Its
// callers are serialized by the round lock.
func (p *ingestPipeline) take() []Reading {
	p.mu.Lock()
	p.buf, p.spare = p.spare[:0], p.buf
	p.mu.Unlock()
	return p.spare
}

// countRejected records a rejection decided by a caller that classified
// the reading itself (the source emitter and IngestBatch both do).
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
