// Package storage is the node's durable state engine. A durable cluster
// node journals every state mutation — ticket registrations, glsn
// grants, fragment stores and deletes — as opaque Records through the
// Store interface, and replays them on restart. Disk implements it: a
// crash-safe on-disk segment store — append-only glsn-range segments
// with a per-record CRC, an fsynced tail with a configurable sync
// policy, atomic segment rotation, compaction, and accumulator
// checkpoints so restart re-verification folds O(delta) segment digests
// instead of re-accumulating the full history. A node without a Store
// keeps its state in RAM only.
//
// Opening follows the validated-config-struct idiom: build an Options,
// Validate it, Open it.
package storage

import (
	"errors"
)

// Errors reported by the engine.
var (
	// ErrFailed marks a store poisoned by an earlier I/O failure (a
	// failed fsync, a short write). Once durability cannot be promised
	// the store refuses every further mutation until reopened, so no
	// acknowledgement can outrun the disk.
	ErrFailed = errors.New("storage: store failed; reopen required")
)

// Record is one journaled mutation, opaque to the engine.
type Record struct {
	// Kind tags the mutation for the replaying layer ("ticket",
	// "grant", "frag", "delete", ...).
	Kind string
	// GLSN associates the record with a log sequence number; 0 when the
	// mutation is not glsn-scoped. Segments track the extent of the
	// glsns they hold so corruption can be reported as a missing range.
	GLSN uint64
	// Data is the payload (the cluster layer's binary journal entry).
	Data []byte
}

// Store is the node-facing storage engine surface.
type Store interface {
	// AppendBatch journals records with one flush/fsync — the group
	// commit every node mutation rides. A nil return is a durability
	// promise per the backend's sync policy: callers may acknowledge the
	// mutation to clients. All-or-nothing up to a crash: a torn tail is
	// detected and truncated on reopen.
	AppendBatch(recs []Record) error
	// Replay streams every live record in append order: the compaction
	// snapshot first, then everything journaled after it. Records in
	// quarantined segments are not replayed — they are named in
	// Status().Quarantined instead of being silently served.
	Replay(fn func(Record) error) error
	// Compact atomically replaces the journaled history with the given
	// snapshot of live state and writes a fresh accumulator checkpoint,
	// bounding both replay and re-verification for the next restart.
	Compact(snapshot []Record) error
	// Sync forces buffered appends to durable media regardless of the
	// sync policy.
	Sync() error
	// NeedsCompaction reports whether enough sealed history has piled up
	// that a Compact would bound the next restart's replay.
	NeedsCompaction() bool
	// Status snapshots the engine's shape: backend, segments,
	// checkpoint, quarantined extents, recovery cost.
	Status() Status
	// Close flushes, fsyncs, and releases the store.
	Close() error
}

// SegmentInfo describes one on-disk segment in Status.
type SegmentInfo struct {
	Seq     uint64 `json:"seq"`
	Records int64  `json:"records"`
	Bytes   int64  `json:"bytes"`
	// GLSNLo/GLSNHi bound the glsn-scoped records inside (0/0 when the
	// segment holds none).
	GLSNLo uint64 `json:"glsn_lo,omitempty"`
	GLSNHi uint64 `json:"glsn_hi,omitempty"`
	Sealed bool   `json:"sealed"`
	// Checkpointed marks segments covered by the last accumulator
	// checkpoint: restart verifies them by one streaming hash each
	// instead of a record-level rescan.
	Checkpointed bool `json:"checkpointed,omitempty"`
}

// QuarantineInfo names a segment recovery refused to serve.
type QuarantineInfo struct {
	Seq    uint64 `json:"seq"`
	Path   string `json:"path"`
	Reason string `json:"reason"`
	// GLSNLo/GLSNHi is the extent of records lost with the segment,
	// taken from the checkpoint's segment table when the segment was
	// checkpointed, or from the CRC-valid prefix otherwise. 0/0 when
	// unknown.
	GLSNLo uint64 `json:"glsn_lo,omitempty"`
	GLSNHi uint64 `json:"glsn_hi,omitempty"`
}

// Extent renders the quarantined glsn range for degraded-mode reports.
func (q QuarantineInfo) Extent() string {
	if q.GLSNLo == 0 && q.GLSNHi == 0 {
		return "unknown glsn extent"
	}
	return "glsn " + hexu(q.GLSNLo) + "-" + hexu(q.GLSNHi)
}

func hexu(v uint64) string {
	const digits = "0123456789abcdef"
	if v == 0 {
		return "0"
	}
	var buf [16]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = digits[v&0xf]
		v >>= 4
	}
	return string(buf[i:])
}

// Status is one engine's externally visible shape, served at
// /debug/dla/storage and rendered by `dlactl storage status`.
type Status struct {
	Backend string `json:"backend"`
	Dir     string `json:"dir,omitempty"`
	// Records counts live records (replayable right now).
	Records int64 `json:"records"`
	// AppendedBytes counts bytes accepted since open.
	AppendedBytes int64            `json:"appended_bytes"`
	Segments      []SegmentInfo    `json:"segments,omitempty"`
	Checkpoint    *CheckpointInfo  `json:"checkpoint,omitempty"`
	Quarantined   []QuarantineInfo `json:"quarantined,omitempty"`
	// RecoveryScannedRecords counts the records recovery had to parse
	// and CRC-check at open — the "delta" a checkpoint bounds.
	RecoveryScannedRecords int64 `json:"recovery_scanned_records"`
	// RecoveryHashedSegments counts checkpointed segments verified by a
	// single streaming hash instead of a record-level scan.
	RecoveryHashedSegments int64 `json:"recovery_hashed_segments"`
	Fsyncs                 int64 `json:"fsyncs"`
	Rotations              int64 `json:"rotations"`
	Checkpoints            int64 `json:"checkpoints"`
	// Failed carries the sticky failure, if the store is poisoned.
	Failed string `json:"failed,omitempty"`
}

// CheckpointInfo summarizes the last durable checkpoint in Status.
type CheckpointInfo struct {
	BaseSeq uint64 `json:"base_seq"`
	// LastSeq is the highest sealed segment the checkpoint covers.
	LastSeq uint64 `json:"last_seq"`
	// Records is the record count over the covered segments.
	Records int64 `json:"records"`
	// Acc is the accumulator digest over the covered segments' hashes
	// (hex, truncated for display).
	Acc string `json:"acc,omitempty"`
}
