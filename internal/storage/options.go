package storage

import (
	"fmt"
	"time"

	"confaudit/internal/crypto/accumulator"
	"confaudit/internal/storage/faultfs"
)

// Backend names, as reported in Status.Backend.
const (
	// BackendMemory labels a node that journals nothing: its state lives
	// in RAM and recovery leans on the cluster protocols (leader sync,
	// client outbox replay). No Store implements it.
	BackendMemory = "memory"
	// BackendDisk is the crash-safe segment store, the one Store.
	BackendDisk = "disk"
)

// SyncPolicy says when acknowledged appends are fsynced.
type SyncPolicy string

// Sync policies, strictest first.
const (
	// SyncAlways fsyncs every append before it returns: an acknowledged
	// record survives any crash.
	SyncAlways SyncPolicy = "always"
	// SyncInterval fsyncs at most once per SyncEvery, amortizing the
	// fsync over a window of appends; a crash can lose the unsynced
	// window (but never corrupt what precedes it).
	SyncInterval SyncPolicy = "interval"
	// SyncNever fsyncs only on rotation and close. Fast, test-grade
	// durability.
	SyncNever SyncPolicy = "never"
)

// Options configures the segment store. Build it, Validate it, Open it
// (the struct carries no hidden state; an all-zero value plus a Backend
// and Dir validates to sensible defaults via withDefaults).
type Options struct {
	// Backend must be BackendDisk.
	Backend string
	// Dir is the segment directory.
	Dir string
	// Sync is the fsync policy for acknowledged appends.
	Sync SyncPolicy
	// SyncEvery is the fsync interval under SyncInterval.
	SyncEvery time.Duration
	// SegmentBytes seals the active segment once it reaches this size.
	SegmentBytes int64
	// CheckpointEvery writes an accumulator checkpoint after this many
	// seals (0 means 4; Compact always writes one).
	CheckpointEvery int
	// CompactSegments is the sealed-segment count at which
	// NeedsCompaction starts reporting true.
	CompactSegments int
}

// withDefaults fills zero fields with production defaults.
func (o Options) withDefaults() Options {
	if o.Sync == "" {
		o.Sync = SyncAlways
	}
	if o.SyncEvery <= 0 {
		o.SyncEvery = 50 * time.Millisecond
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 4 << 20
	}
	if o.CheckpointEvery <= 0 {
		o.CheckpointEvery = 4
	}
	if o.CompactSegments <= 0 {
		o.CompactSegments = 8
	}
	return o
}

// Validate rejects contradictions before any file is touched.
func (o Options) Validate() error {
	switch o.Backend {
	case BackendDisk:
	case "":
		return fmt.Errorf("storage: no backend selected")
	default:
		return fmt.Errorf("storage: unknown backend %q (want %s)", o.Backend, BackendDisk)
	}
	switch o.Sync {
	case "", SyncAlways, SyncInterval, SyncNever:
	default:
		return fmt.Errorf("storage: unknown sync policy %q (want %s, %s or %s)",
			o.Sync, SyncAlways, SyncInterval, SyncNever)
	}
	if o.Dir == "" {
		return fmt.Errorf("storage: disk backend requires a directory")
	}
	if o.SegmentBytes < 0 {
		return fmt.Errorf("storage: negative segment size %d", o.SegmentBytes)
	}
	if o.SegmentBytes > 0 && o.SegmentBytes < int64(headerSize) {
		return fmt.Errorf("storage: segment size %d smaller than the header", o.SegmentBytes)
	}
	return nil
}

// Open validates o and opens (recovering, or initializing) the segment
// store in o.Dir. params supplies the accumulator group for checkpoints;
// fsys is the filesystem seam, nil meaning the real OS.
func Open(o Options, params *accumulator.Params, fsys faultfs.FS) (Store, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	return openDisk(o.withDefaults(), params, fsys)
}
