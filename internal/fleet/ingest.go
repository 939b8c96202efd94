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
// emptied. A round's source advance stages its readings and pushes them
// pushChunk at a time (pushBatch), one lock per chunk instead of one per
// reading. The bound keeps a misbehaving producer from growing memory
// without limit: at most 2 × capacity + pushChunk readings exist — the
// buffer filling, the spare the last drain emptied, and one staged chunk;
// the drop and supersede counters make that degradation visible.
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

// pushChunk is how many staged source readings pushBatch moves into the
// buffer under one lock.
const pushChunk = 512

// newIngestPipeline bounds the buffer at capacity readings; it grows by append.
func newIngestPipeline(capacity int) *ingestPipeline {
	return &ingestPipeline{capacity: capacity}
}

// pushBatch offers readings already classified plausible, in order, under
// one lock: as many as the buffer has room for are appended and counted
// received, the rest are dropped and counted. It returns how many were
// accepted. The HTTP push path offers one reading at a time
// (readings[i:i+1]); a source advance offers a staged chunk.
func (p *ingestPipeline) pushBatch(rs []Reading) (accepted int) {
	if len(rs) == 0 {
		return 0
	}
	p.mu.Lock()
	n := min(len(rs), p.capacity-len(p.buf))
	p.buf = append(p.buf, rs[:n]...)
	p.mu.Unlock()
	if n > 0 {
		p.received.Add(int64(n))
	}
	if n < len(rs) {
		p.dropped.Add(int64(len(rs) - n))
	}
	return n
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
// the reading before offering it (both push paths do).
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
