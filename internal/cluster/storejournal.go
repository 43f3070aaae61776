package cluster

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"confaudit/internal/logmodel"
	"confaudit/internal/storage"
	"confaudit/internal/telemetry"
	"confaudit/internal/ticket"
	"confaudit/internal/workpool"
)

// Durable node state. A DLA node journals every state mutation — ticket
// registrations, certified glsn grants, fragment stores/deletes — to the
// segment store, and replays it on restart. Without a journal a node
// restart silently loses its fragment slice, breaking both integrity
// circulation and audit completeness for every record it held.

// walEntry is one journaled mutation.
type walEntry struct {
	Kind string `json:"kind"` // "ticket" | "grant" | "frag" | "delete"

	Ticket   *wireTicket   `json:"ticket,omitempty"`
	TicketID string        `json:"ticket_id,omitempty"`
	GLSN     logmodel.GLSN `json:"glsn,omitempty"`
	Count    int           `json:"count,omitempty"` // grant range size; 0/absent means 1
	// Item is the store item a "frag" entry installs, in the wire
	// codec's item encoding; replay hands it to storeLocked as is.
	Item *batchItem `json:"item,omitempty"`
}

// A journal record's payload opens with this magic/version prefix,
// followed by the entry's compact wire encoding from wirecodec.go. The
// segment store frames and checksums records itself. Version 3 carries
// a "frag" entry's store item whole, and ticket and provenance
// signatures as 64-byte Ed25519 runs; replay refuses every other
// version.
const (
	walBinMagic   = 0xDA
	walBinVersion = 3
)

// storeJournal is a node's journal: it carries walEntries into a
// storage.Store. Each entry travels as a Record: Kind for the replay
// switch, the entry's glsn so segments track the extents they hold, and
// the binary entry as the opaque payload. A memory-only node holds a nil
// *storeJournal, which journals into the void.
type storeJournal struct {
	s storage.Store

	mu sync.Mutex
	// pending holds record groups staged under the node state lock but
	// not yet appended to the store; every write path drains it first so
	// store order matches apply order (see storeStagedBatch).
	pending [][]storage.Record
	// failed poisons the journal after a staged commit could not reach
	// the store: memory is ahead of the journal and every later
	// mutation is refused.
	failed error
}

// entryRecord converts one walEntry to its storage Record.
func entryRecord(e *walEntry) (storage.Record, error) {
	data := make([]byte, 0, 2+walEntrySize(e))
	data = append(data, walBinMagic, walBinVersion)
	data, err := appendWALEntry(data, e)
	if err != nil {
		return storage.Record{}, fmt.Errorf("cluster: encoding journal entry: %w", err)
	}
	telemetry.M.Counter(telemetry.CtrWALBinaryRecords).Add(1)
	g := uint64(e.GLSN)
	if e.Item != nil {
		g = uint64(e.Item.Fragment.GLSN)
	}
	return storage.Record{Kind: e.Kind, GLSN: g, Data: data}, nil
}

// encodeStoreRecords converts a batch, fanning the per-entry encode over
// the shared worker pool for large groups. Encoding happens before the
// journal lock, which is what lets the group commit overlap the
// in-memory apply on the batched store path.
func encodeStoreRecords(entries []walEntry) ([]storage.Record, error) {
	defer telemetry.M.Histogram(telemetry.HistWALEncode).Since(time.Now())
	recs := make([]storage.Record, len(entries))
	if len(entries) >= ingestFanoutThreshold {
		if err := workpool.Map(len(entries), func(i int) error {
			var err error
			recs[i], err = entryRecord(&entries[i])
			return err
		}); err != nil {
			return nil, err
		}
		return recs, nil
	}
	for i := range entries {
		var err error
		if recs[i], err = entryRecord(&entries[i]); err != nil {
			return nil, err
		}
	}
	return recs, nil
}

// drainLocked appends every staged record group to the store in
// reservation order. A failure poisons the journal — the store may hold
// a prefix of a reserved group, so order is no longer knowable. A store
// that poisoned itself has already recorded the incident.
func (j *storeJournal) drainLocked() error {
	for len(j.pending) > 0 {
		if err := j.s.AppendBatch(j.pending[0]); err != nil {
			j.failed = fmt.Errorf("cluster: appending staged journal batch: %w", err)
			if !errors.Is(err, storage.ErrFailed) {
				telemetry.F.Record(telemetry.FlightEvent{
					Kind: telemetry.FlightJournalPoison, Outcome: telemetry.ErrClass(err),
				})
			}
			return j.failed
		}
		j.pending = j.pending[1:]
	}
	return nil
}

// append journals one entry. Errors are returned so callers can refuse
// the mutation rather than diverge from disk.
func (j *storeJournal) append(e walEntry) error {
	if j == nil {
		return nil
	}
	rec, err := entryRecord(&e)
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

// appendBatch journals several entries as one group commit.
func (j *storeJournal) appendBatch(entries []walEntry) error {
	if j == nil {
		return nil
	}
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

// storeStagedBatch is a prepared group commit whose journal position is
// reserved by stage (memory-only, under the node state lock) and whose
// records reach the store in commit. A commit failure poisons the
// journal: the batch was already applied in memory, so a node that
// cannot journal it must refuse every later mutation rather than
// silently serve state its journal will never replay.
type storeStagedBatch struct {
	j    *storeJournal
	recs []storage.Record
}

// prepareBatch encodes a non-empty batch off every lock. The returned
// batch is staged under the node state lock (fixing the records'
// journal position relative to every later append) and committed
// off-lock. An encode error surfaces here, before the caller has
// mutated any state. This is how the pipelined store path keeps
// on-disk record order identical to in-memory apply order for every
// glsn.
func (j *storeJournal) prepareBatch(entries []walEntry) (*storeStagedBatch, error) {
	recs, err := encodeStoreRecords(entries)
	if err != nil {
		return nil, err
	}
	return &storeStagedBatch{j: j, recs: recs}, nil
}

// stage reserves the batch's position in the journal. Memory-only: safe
// to call under the node state lock. The stage histogram is dominated by
// journal-lock contention — a committing batch holding j.mu is what a
// slow stage means.
func (b *storeStagedBatch) stage() {
	defer telemetry.M.Histogram(telemetry.HistWALStage).Since(time.Now())
	b.j.mu.Lock()
	b.j.pending = append(b.j.pending, b.recs)
	b.j.mu.Unlock()
}

// commit drains the staged queue through this batch into the store,
// which writes and fsyncs it per its sync policy.
func (b *storeStagedBatch) commit() error {
	j := b.j
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.failed != nil {
		return j.failed
	}
	return j.drainLocked()
}

// rewrite replaces the journaled history with a snapshot of entries
// through the store's compaction.
func (j *storeJournal) rewrite(entries []walEntry) error {
	recs := make([]storage.Record, 0, len(entries))
	for i := range entries {
		rec, err := entryRecord(&entries[i])
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

// Close drains staged records, then flushes, fsyncs, and closes the
// store.
func (j *storeJournal) Close() error {
	if j == nil {
		return nil
	}
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
// other payload is corruption, and one of another version is refused
// by its number: there is no upgrade path between versions.
func replayStore(s storage.Store, fn func(walEntry) error) error {
	return s.Replay(func(rec storage.Record) error {
		if len(rec.Data) < 2 || rec.Data[0] != walBinMagic {
			return fmt.Errorf("cluster: decoding journal record (kind %q): not a binary journal entry", rec.Kind)
		}
		if v := rec.Data[1]; v != walBinVersion {
			return fmt.Errorf("cluster: decoding journal record (kind %q): journal version %d, this build reads only version %d", rec.Kind, v, walBinVersion)
		}
		e, err := decodeWALEntry(rec.Data[2:])
		if err != nil {
			return fmt.Errorf("cluster: decoding journal record (kind %q): %w", rec.Kind, err)
		}
		return fn(e)
	})
}

// CompactStorage rewrites the journal as a snapshot of the node's
// current state, discarding superseded entries (overwritten fragments,
// delete tombstones). It holds the compaction fence and the node's
// state lock across snapshot and swap, so no mutation — including a
// pipelined batch append running off the state lock — can land in the
// discarded journal.
func (n *Node) CompactStorage() error {
	if n.journal == nil {
		return nil
	}
	n.compactMu.Lock()
	defer n.compactMu.Unlock()
	n.mu.Lock()
	defer n.mu.Unlock()
	ids := n.acl.TicketIDs()
	entries := make([]walEntry, 0, len(ids)+len(n.grantLog)+len(n.recs))
	for _, id := range ids {
		tk, _ := n.acl.Ticket(id)
		wt := ToWire(tk)
		entries = append(entries, walEntry{Kind: "ticket", Ticket: &wt})
	}
	for _, r := range n.grantLog {
		entries = append(entries, walEntry{Kind: "grant", TicketID: r.TicketID, GLSN: r.First, Count: r.Count})
	}
	for _, rec := range n.recs {
		entries = append(entries, walEntry{Kind: "frag", Item: &rec.item})
	}
	return n.journal.rewrite(entries)
}

// applyWALEntry applies one journaled mutation to the node's in-memory
// state during recovery. Fragments install and remove through
// storeLocked and removeLocked, the helpers the live path uses, so a
// replayed node holds exactly the state its live self held. It
// tolerates duplicates: a checkpoint snapshot
// followed by a delta that re-journals the same ticket or grant must
// converge, not fail, because registration and grants are idempotent
// facts, not counters.
func (n *Node) applyWALEntry(e walEntry) error {
	switch e.Kind {
	case "ticket":
		if e.Ticket == nil {
			return errors.New("cluster: journal ticket entry without ticket")
		}
		if err := n.acl.Register(e.Ticket.ticket()); err != nil {
			if errors.Is(err, ticket.ErrDuplicateTicket) {
				return nil
			}
			return fmt.Errorf("cluster: replaying ticket: %w", err)
		}
	case "grant":
		r := grantRange{First: e.GLSN, Count: max(e.Count, 1), TicketID: e.TicketID}
		// The glsn counter advances past every journaled grant, so the
		// sequencer never reissues one.
		if r.end() > n.nextGLSN {
			n.nextGLSN = r.end()
		}
		if _, ok := n.acl.Ticket(r.TicketID); !ok {
			// The registration entry was lost with a quarantined segment.
			// The node still boots (degraded, with the loss named in its
			// quarantine extents); the grant is skipped rather than
			// failing the whole recovery.
			return nil
		}
		for g := r.First; g < r.end(); g++ {
			if err := n.acl.Grant(r.TicketID, g); err != nil {
				return fmt.Errorf("cluster: replaying grant: %w", err)
			}
		}
		n.grantLog = append(n.grantLog, r) // ordered once replay ends (orderGrantLog)
	case "frag":
		if e.Item == nil {
			return errors.New("cluster: journal frag entry without store item")
		}
		n.storeLocked(e.Item)
	case "delete":
		n.removeLocked(e.GLSN)
	default:
		return fmt.Errorf("cluster: unknown journal entry kind %q", e.Kind)
	}
	return nil
}

// orderGrantLog restores the grant log's invariant after replay: ranges
// in glsn order, each glsn once. A journal replays in apply order, so
// this is one pass that drops the grants a snapshot-plus-delta replay
// re-journals; a log replayed out of order is sorted first.
func orderGrantLog(log []grantRange) []grantRange {
	byFirst := func(a, b grantRange) int { return cmp.Compare(a.First, b.First) }
	if !slices.IsSortedFunc(log, byFirst) {
		slices.SortStableFunc(log, byFirst)
	}
	out := log[:0]
	var end logmodel.GLSN
	for _, r := range log {
		if r.end() <= end {
			continue // every glsn already logged
		}
		if r.First < end {
			r.Count -= int(end - r.First)
			r.First = end
		}
		out = append(out, r)
		end = r.end()
	}
	return out
}
