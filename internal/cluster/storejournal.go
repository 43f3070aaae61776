package cluster

import (
	"fmt"
	"sync"
	"time"

	"confaudit/internal/storage"
	"confaudit/internal/telemetry"
	"confaudit/internal/workpool"
)

// journal is the node's durability seam. Two implementations exist: the
// record-framed *WAL in this package (the "wal" backend, nil-receiver
// safe so a memory-only node journals into the void), and storeJournal,
// which adapts any storage.Store — in particular the crash-safe segment
// store.
type journal interface {
	append(e walEntry) error
	appendBatch(entries []walEntry) error
	// prepareBatch encodes a batch off-lock and returns a two-phase
	// group commit: stage is called under the node state lock to fix
	// the batch's journal position relative to every later append, and
	// commit performs the write/flush/fsync off-lock. This is how the
	// pipelined store path keeps on-disk record order identical to
	// in-memory apply order for every GLSN.
	prepareBatch(entries []walEntry) (journalBatch, error)
	rewrite(entries []walEntry) error
	Close() error
}

// journalBatch is a prepared group commit whose journal position is
// reserved by stage (memory-only, under the node state lock) and whose
// bytes reach the journal in commit. A commit failure poisons the
// backing journal: the batch was already applied in memory, so a node
// that cannot journal it must refuse every later mutation rather than
// silently serve state its journal will never replay.
type journalBatch interface {
	stage()
	commit() error
}

// noopStagedBatch backs nil journals and empty batches.
type noopStagedBatch struct{}

func (noopStagedBatch) stage()        {}
func (noopStagedBatch) commit() error { return nil }

// storeJournal adapts a storage.Store to the journal seam. Each walEntry
// travels as a Record: Kind for the replay switch, the entry's glsn so
// segments track the extents they hold, and the binary wire encoding as
// the opaque payload. The segment store frames and checksums records
// itself, so the payload carries only the magic/version prefix plus the
// entry bytes — no length or CRC of its own.
type storeJournal struct {
	s storage.Store

	mu sync.Mutex
	// pending holds record groups staged under the node state lock but
	// not yet appended to the store; every write path drains it first so
	// store order matches apply order (see journalBatch).
	pending [][]storage.Record
	// failed poisons the journal after a staged commit could not reach
	// the store: memory is ahead of the journal and every later
	// mutation is refused.
	failed error
}

// entryRecord converts one walEntry to its storage Record.
func entryRecord(e walEntry) (storage.Record, error) {
	data := make([]byte, 0, 2+walEntrySize(&e))
	data = append(data, walBinMagic, walBinVersion)
	data, err := appendWALEntry(data, &e)
	if err != nil {
		return storage.Record{}, fmt.Errorf("cluster: encoding journal entry: %w", err)
	}
	telemetry.M.Counter(telemetry.CtrWALBinaryRecords).Add(1)
	g := uint64(e.GLSN)
	if e.Fragment != nil {
		g = uint64(e.Fragment.GLSN)
	}
	return storage.Record{Kind: e.Kind, GLSN: g, Data: data}, nil
}

// encodeStoreRecords converts a batch, fanning the per-entry encode over
// the shared worker pool for large groups.
func encodeStoreRecords(entries []walEntry) ([]storage.Record, error) {
	defer telemetry.M.Histogram(telemetry.HistWALEncode).Since(time.Now())
	recs := make([]storage.Record, len(entries))
	if len(entries) >= ingestFanoutThreshold {
		if err := workpool.Map(len(entries), func(i int) error {
			var err error
			recs[i], err = entryRecord(entries[i])
			return err
		}); err != nil {
			return nil, err
		}
		return recs, nil
	}
	for i := range entries {
		var err error
		if recs[i], err = entryRecord(entries[i]); err != nil {
			return nil, err
		}
	}
	return recs, nil
}

// drainLocked appends every staged record group to the store in
// reservation order. A failure poisons the journal — the store may hold
// a prefix of a reserved group, so order is no longer knowable.
func (j *storeJournal) drainLocked() error {
	for len(j.pending) > 0 {
		if err := j.s.AppendBatch(j.pending[0]); err != nil {
			j.failed = fmt.Errorf("cluster: appending staged journal batch: %w", err)
			telemetry.F.Record(telemetry.FlightEvent{
				Kind: telemetry.FlightJournalPoison, Outcome: telemetry.ErrClass(err),
			})
			return j.failed
		}
		j.pending = j.pending[1:]
	}
	return nil
}

func (j *storeJournal) append(e walEntry) error {
	rec, err := entryRecord(e)
	if err != nil {
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.failed != nil {
		return j.failed
	}
	if err := j.drainLocked(); err != nil {
		return err
	}
	return j.s.Append(rec)
}

func (j *storeJournal) appendBatch(entries []walEntry) error {
	recs, err := encodeStoreRecords(entries)
	if err != nil {
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.failed != nil {
		return j.failed
	}
	if err := j.drainLocked(); err != nil {
		return err
	}
	return j.s.AppendBatch(recs)
}

// storeStagedBatch is a prepared group commit against the store backend.
type storeStagedBatch struct {
	j    *storeJournal
	recs []storage.Record
}

func (j *storeJournal) prepareBatch(entries []walEntry) (journalBatch, error) {
	if len(entries) == 0 {
		return noopStagedBatch{}, nil
	}
	recs, err := encodeStoreRecords(entries)
	if err != nil {
		return nil, err
	}
	return &storeStagedBatch{j: j, recs: recs}, nil
}

func (b *storeStagedBatch) stage() {
	defer telemetry.M.Histogram(telemetry.HistWALStage).Since(time.Now())
	b.j.mu.Lock()
	b.j.pending = append(b.j.pending, b.recs)
	b.j.mu.Unlock()
}

func (b *storeStagedBatch) commit() error {
	j := b.j
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.failed != nil {
		return j.failed
	}
	return j.drainLocked()
}

// rewrite maps the WAL's snapshot-rewrite onto the store's compaction.
func (j *storeJournal) rewrite(entries []walEntry) error {
	recs := make([]storage.Record, 0, len(entries))
	for _, e := range entries {
		rec, err := entryRecord(e)
		if err != nil {
			return err
		}
		recs = append(recs, rec)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.failed != nil {
		return j.failed
	}
	if err := j.drainLocked(); err != nil {
		return err
	}
	return j.s.Compact(recs)
}

func (j *storeJournal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.failed == nil {
		if err := j.drainLocked(); err != nil {
			j.s.Close() //nolint:errcheck // poisoned; still release the handle
			return err
		}
	}
	return j.s.Close()
}

// replayStore streams a store's surviving records back as walEntries.
// Every payload is the magic/version prefix plus a binary entry; any
// other payload is corruption.
func replayStore(s storage.Store, fn func(walEntry) error) error {
	return s.Replay(func(rec storage.Record) error {
		if len(rec.Data) < 2 || rec.Data[0] != walBinMagic || rec.Data[1] != walBinVersion {
			return fmt.Errorf("cluster: decoding journal record (kind %q): not a version-%d binary entry", rec.Kind, walBinVersion)
		}
		e, err := decodeWALEntry(rec.Data[2:])
		if err != nil {
			return fmt.Errorf("cluster: decoding journal record (kind %q): %w", rec.Kind, err)
		}
		return fn(e)
	})
}
