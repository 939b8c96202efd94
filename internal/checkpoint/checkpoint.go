// Package checkpoint persists the control plane's full serving state — the
// warm capital the paper's online pipeline accumulates and a process restart
// would otherwise burn: every engine session's γ calibration and staleness
// clocks (Eqs. 4–6 take many Δ_update intervals to converge), the fleet
// controller's round counter and pending placement queue, the live hotspot
// index, and the anchor cache with its generation split intact. It is the
// only format serving state reaches disk in: a simulated fleet, whose
// substrate is not captured, checkpoints the anchor-cache section alone.
//
// The on-disk format is versioned, length-framed and CRC-protected; the
// Store keeps two generations and writes each atomically (temp file + fsync
// + rename), so a crash at any instant — including SIGKILL mid-checkpoint —
// leaves the previous good generation loadable. Decode rejects malformed
// input with an error, never a panic: the decoder is fuzzed.
package checkpoint

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"vmtherm/internal/anchorcache"
	"vmtherm/internal/engine"
	"vmtherm/internal/telemetry"
	"vmtherm/internal/workload"
)

// File framing (little-endian):
//
//	[8]byte  magic "vmtckpt1"
//	uint32   format version (1)
//	uint64   sequence number (monotonic across Store generations)
//	uint64   payload length
//	payload  gob-encoded State
//	uint32   CRC-32 (IEEE) over every preceding byte
const formatVersion = 1

var fileMagic = [8]byte{'v', 'm', 't', 'c', 'k', 'p', 't', '1'}

// maxPayload bounds the length field; a real checkpoint of even a 100k-host
// fleet is far smaller.
const maxPayload = 1 << 30

// ErrFormat reports an unreadable checkpoint: bad magic, unsupported
// version, implausible length, truncation, or CRC mismatch.
var ErrFormat = errors.New("checkpoint: bad checkpoint file")

func init() {
	// The pending placement queue carries workload.Profile interface values;
	// gob needs every concrete implementation registered.
	gob.Register(workload.Constant{})
	gob.Register(workload.Sine{})
	gob.Register(workload.Bursty{})
}

// Proposal mirrors the controller's pending migration proposal (a checkpoint
// must not import the fleet package it serves).
type Proposal struct {
	VMID       string
	FromHostID string
	ToHostID   string
	MarginC    float64
}

// Hotspot mirrors one live hotspot-index entry.
type Hotspot struct {
	HostID         string
	PredictedTempC float64
	MarginC        float64
	UncertaintyC   float64
}

// IngestTotals carries the ingest pipeline's cumulative counters, so a
// restored controller reports continuous totals (RoundReport's DroppedTotal
// and SupersededTotal, the /metrics counters) instead of restarting at zero.
type IngestTotals struct {
	Received   int64
	Dropped    int64
	Superseded int64
	Rejected   [telemetry.NumRejectReasons]int64
}

// StreamState is the streaming-ingest machinery's durable state: cumulative
// counters plus the incrementally maintained hotspot index (sorted by host
// id for deterministic bytes). Nil in State until the first push has built
// the index. A checkpoint written when pushes could make sessions also
// carries their count (Created); gob skips it.
type StreamState struct {
	Applied     int64
	Deferred    int64
	Predictions int64
	Hotspots    []Hotspot
}

// CacheState is the anchor cache with its two-generation split preserved —
// a flat reload would reset rotation/eviction timing and break the restored
// twin's bit-identity with a never-restarted one. Quant is the bucket widths
// the keys were derived with: keys address different buckets under different
// widths, so a restore applies the section only to a cache with exactly
// these (checkpoints older than the field decode it as zero and never match).
type CacheState struct {
	Quant anchorcache.Quantizer
	Cur   []anchorcache.Entry
	Prev  []anchorcache.Entry
	Stats anchorcache.Stats
	Epoch int64
}

// State is the full serving state of a controller at a round boundary.
type State struct {
	// SavedUnixNano stamps the capture wall-clock instant (informational).
	SavedUnixNano int64
	// Round is the number of completed control rounds.
	Round int
	// SourceName and SourceNowS identify the telemetry source kind and its
	// clock at capture; restore fast-forwards the fresh source to SourceNowS
	// so staleness and eviction clocks stay monotonic.
	SourceName string
	SourceNowS float64
	// Engine is every live session, sorted by id (a restore keeps Order's).
	Engine engine.State
	// Latest is the newest reading per host, sorted by host id.
	Latest []telemetry.Reading
	// Order is the deterministic host iteration order; OrderDirty carries the
	// membership-changed flag.
	Order      []string
	OrderDirty bool
	// Proposals are migration proposals awaiting reconciliation.
	Proposals []Proposal
	// PendingVMs is the admission-controlled placement queue.
	PendingVMs []workload.VMSpec
	// Ingest carries the pipeline's cumulative counters. Readings buffered in
	// the pipeline but not yet drained by a round are NOT captured — a
	// checkpoint is a round-boundary cut, and an undrained reading is
	// indistinguishable from one that arrived during the outage.
	Ingest IngestTotals
	// RecentErrors is the bounded ring surfaced in RoundReport.
	RecentErrors []string
	// LastRejected is the previous round's rejection total (per-round delta
	// accounting).
	LastRejected int64
	// LastFanout is the previous round's anchor miss-batch size.
	LastFanout int64
	// Stream is the streaming-ingest state; nil until the first push.
	Stream *StreamState
	// AnchorCache preserves the anchor cache; nil if the writer had it off.
	AnchorCache *CacheState
}

// Encode frames and writes a checkpoint, returning the bytes written.
func Encode(w io.Writer, seq uint64, st *State) (int64, error) {
	if st == nil {
		return 0, errors.New("checkpoint: nil state")
	}
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(st); err != nil {
		return 0, fmt.Errorf("checkpoint: encode state: %w", err)
	}
	if payload.Len() > maxPayload {
		return 0, fmt.Errorf("checkpoint: state too large (%d bytes)", payload.Len())
	}
	bw := bufio.NewWriter(w)
	sum := crc32.NewIEEE()
	body := io.MultiWriter(bw, sum)
	if _, err := body.Write(fileMagic[:]); err != nil {
		return 0, err
	}
	var scratch [8]byte
	binary.LittleEndian.PutUint32(scratch[:4], formatVersion)
	if _, err := body.Write(scratch[:4]); err != nil {
		return 0, err
	}
	binary.LittleEndian.PutUint64(scratch[:], seq)
	if _, err := body.Write(scratch[:]); err != nil {
		return 0, err
	}
	binary.LittleEndian.PutUint64(scratch[:], uint64(payload.Len()))
	if _, err := body.Write(scratch[:]); err != nil {
		return 0, err
	}
	n := int64(8 + 4 + 8 + 8 + payload.Len() + 4)
	if _, err := body.Write(payload.Bytes()); err != nil {
		return 0, err
	}
	binary.LittleEndian.PutUint32(scratch[:4], sum.Sum32())
	if _, err := bw.Write(scratch[:4]); err != nil {
		return 0, err
	}
	return n, bw.Flush()
}

// Decode reads one framed checkpoint, verifying magic, version, length and
// CRC before the payload is unmarshaled. Malformed input of any kind —
// truncated frame, forged length, flipped bit, garbage gob — yields an
// error wrapping ErrFormat, never a panic.
func Decode(r io.Reader) (*State, uint64, error) {
	sum := crc32.NewIEEE()
	var header [8]byte
	full := func(buf []byte) error {
		if _, err := io.ReadFull(r, buf); err != nil {
			return err
		}
		_, _ = sum.Write(buf)
		return nil
	}
	if err := full(header[:]); err != nil {
		return nil, 0, fmt.Errorf("%w: %v", ErrFormat, err)
	}
	if header != fileMagic {
		return nil, 0, fmt.Errorf("%w: bad magic %q", ErrFormat, header[:])
	}
	if err := full(header[:4]); err != nil {
		return nil, 0, fmt.Errorf("%w: %v", ErrFormat, err)
	}
	if v := binary.LittleEndian.Uint32(header[:4]); v != formatVersion {
		return nil, 0, fmt.Errorf("%w: unsupported version %d", ErrFormat, v)
	}
	if err := full(header[:]); err != nil {
		return nil, 0, fmt.Errorf("%w: %v", ErrFormat, err)
	}
	seq := binary.LittleEndian.Uint64(header[:])
	if err := full(header[:]); err != nil {
		return nil, 0, fmt.Errorf("%w: %v", ErrFormat, err)
	}
	length := binary.LittleEndian.Uint64(header[:])
	if length > maxPayload {
		return nil, 0, fmt.Errorf("%w: implausible payload length %d", ErrFormat, length)
	}
	// Grow the staging buffer with the bytes that are actually there: the
	// length field is not trusted for the allocation, so a forged one costs
	// what the file holds, not the gigabyte it may claim.
	payload, err := io.ReadAll(io.LimitReader(r, int64(length)))
	if err == nil && uint64(len(payload)) < length {
		err = io.ErrUnexpectedEOF
	}
	if err != nil {
		return nil, 0, fmt.Errorf("%w: truncated payload: %v", ErrFormat, err)
	}
	_, _ = sum.Write(payload)
	want := sum.Sum32()
	if _, err := io.ReadFull(r, header[:4]); err != nil {
		return nil, 0, fmt.Errorf("%w: missing CRC trailer: %v", ErrFormat, err)
	}
	if got := binary.LittleEndian.Uint32(header[:4]); got != want {
		return nil, 0, fmt.Errorf("%w: CRC mismatch (file %08x, computed %08x)", ErrFormat, got, want)
	}
	st := &State{}
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(st); err != nil {
		return nil, 0, fmt.Errorf("%w: payload: %v", ErrFormat, err)
	}
	return st, seq, nil
}
