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
	"confaudit/internal/wire"
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
	// codec's item encoding. A replayed entry's item is the run it was
	// journaled as, and replay installs that run.
	Item *batchItem `json:"item,omitempty"`
}

// A journal record's payload opens with this magic/version prefix,
// followed by the entry's compact wire encoding from wirecodec.go. The
// segment store frames and checksums records itself. Version 4 carries
// a "frag" entry's store item whole, with the record's digest exponent
// and no witness exponent, and ticket and provenance signatures as
// 64-byte Ed25519 runs; replay refuses every other version.
const (
	walBinMagic   = 0xDA
	walBinVersion = 4
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
	// not yet appended to the store; commit and rewrite drain it in
	// order, so store order matches apply order.
	pending [][]storage.Record
	// failed poisons the journal after a staged group could not reach
	// the store: memory is ahead of the journal and every later
	// mutation is refused.
	failed error
}

// entryRecord converts one walEntry to its storage Record.
func entryRecord(e *walEntry) (storage.Record, error) {
	var err error
	data := wire.Encode(func(dst []byte) []byte {
		dst, err = appendWALEntry(append(dst, walBinMagic, walBinVersion), e)
		return dst
	})
	if err != nil {
		return storage.Record{}, fmt.Errorf("cluster: encoding journal entry: %w", err)
	}
	telemetry.M.Counter(telemetry.CtrWALBinaryRecords).Add(1)
	g := uint64(e.GLSN)
	if e.Item != nil {
		g = uint64(e.Item.glsn())
	}
	return storage.Record{Kind: e.Kind, GLSN: g, Data: data}, nil
}

// ingestFanoutThreshold is the group size at which encode fans the
// per-entry encode over the shared worker pool. Below it the serial
// loop is cheaper than the pool handoff.
const ingestFanoutThreshold = 8

// encode converts a mutation's entries to journal records, before any
// lock: a group of ingestFanoutThreshold or more entries (a durable
// store batch) fans the per-entry encode over the shared worker pool.
// A memory-only node's nil journal encodes nothing.
func (j *storeJournal) encode(entries []walEntry) ([]storage.Record, error) {
	if j == nil {
		return nil, nil
	}
	defer telemetry.M.Histogram(telemetry.HistWALEncode).Since(time.Now())
	recs := make([]storage.Record, len(entries))
	if len(entries) >= ingestFanoutThreshold {
		telemetry.M.Counter(telemetry.CtrIngestFanout).Add(1)
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

// stage reserves the records' position in the journal: every group
// staged later reaches the store after them. Memory-only, so it runs
// under the node state lock, which makes journal order apply order. The
// stage histogram is dominated by journal-lock contention — a
// committing group holding j.mu is what a slow stage means.
func (j *storeJournal) stage(recs []storage.Record) {
	if j == nil || len(recs) == 0 {
		return
	}
	defer telemetry.M.Histogram(telemetry.HistWALStage).Since(time.Now())
	j.mu.Lock()
	if j.failed == nil { // a poisoned journal refuses the commit anyway
		j.pending = append(j.pending, recs)
	}
	j.mu.Unlock()
}

// commit drains the staged queue into the store, which writes and
// fsyncs each group per its sync policy. It runs off the node state
// lock; once it returns nil, every group staged before the call is
// durable. A poisoned journal refuses: memory is ahead of it, and every
// later mutation must fail rather than serve state replay will never
// rebuild.
func (j *storeJournal) commit() error {
	if j == nil {
		return nil
	}
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
// by its number: there is no upgrade path between versions. A "frag"
// entry's item and index keys are reused from record to record: fn must
// not keep them (install copies what it keeps).
func replayStore(s storage.Store, fn func(walEntry) error) error {
	var keys []valueKey
	var item batchItem
	return s.Replay(func(rec storage.Record) error {
		if len(rec.Data) < 2 || rec.Data[0] != walBinMagic {
			return fmt.Errorf("cluster: decoding journal record (kind %q): not a binary journal entry", rec.Kind)
		}
		if v := rec.Data[1]; v != walBinVersion {
			return fmt.Errorf("cluster: decoding journal record (kind %q): journal version %d, this build reads only version %d", rec.Kind, v, walBinVersion)
		}
		e, more, err := decodeWALEntry(rec.Data[2:], keys[:0], &item)
		keys = more
		if err != nil {
			return fmt.Errorf("cluster: decoding journal record (kind %q): %w", rec.Kind, err)
		}
		return fn(e)
	})
}

// mutate is the one route by which a node mutation reaches its journal.
// The entries encode before any lock. apply runs under n.mu and reports
// whether it changed state; only then are the records staged, still
// under n.mu, so journal order is apply order by construction. The
// commit (write and fsync) runs after n.mu is released, and mutate
// returns only once it has: callers ack, reply and wake waiters after
// that, so a crash between apply and commit loses only unacknowledged
// work. An apply error stages nothing.
func (n *Node) mutate(entries []walEntry, apply func() (bool, error)) error {
	recs, err := n.journal.encode(entries)
	if err != nil {
		return err
	}
	n.mu.Lock()
	changed, err := apply()
	if changed && err == nil {
		n.journal.stage(recs)
	}
	n.mu.Unlock()
	if !changed || err != nil {
		return err
	}
	return n.journal.commit()
}

// CompactStorage rewrites the journal as a snapshot of the node's
// current state, discarding superseded entries (overwritten fragments,
// delete tombstones); each fragment is written as the bytes the node
// holds, without decoding them, in glsn order, so an unchanged node
// snapshots to the same bytes every time. It holds the node's state
// lock across snapshot and rewrite, and rewrite drains the staged queue
// before it compacts. A mutation stages under that lock, so a group staged
// before the snapshot is already in it and reaches the store before the
// snapshot replaces it, and one staged after it lands behind the
// snapshot.
func (n *Node) CompactStorage() error {
	if n.journal == nil {
		return nil
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	ids := n.acl.TicketIDs()
	entries := make([]walEntry, 0, len(ids)+len(n.grantLog)+n.frags.len())
	for _, id := range ids {
		tk, _ := n.acl.Ticket(id)
		wt := ToWire(tk)
		entries = append(entries, walEntry{Kind: "ticket", Ticket: &wt})
	}
	for _, r := range n.grantLog {
		entries = append(entries, walEntry{Kind: "grant", TicketID: r.TicketID, GLSN: r.First, Count: r.Count})
	}
	n.frags.each(func(_ logmodel.GLSN, run []byte) {
		entries = append(entries, walEntry{Kind: "frag", Item: &batchItem{view: itemView{run: run}}})
	})
	return n.journal.rewrite(entries)
}

// applyWALEntry applies one journaled mutation to the node's in-memory
// state during recovery. Fragments install and remove through the
// fragstore's install and remove, as on the live path, so a replayed
// node holds exactly the state its live self held; install copies each
// run into the store's arena, so no held run pins its journal record. It
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
		if err := n.acl.Grant(r.TicketID, r.First, r.Count); err != nil {
			return fmt.Errorf("cluster: replaying grant: %w", err)
		}
		n.grantLog = append(n.grantLog, r) // ordered once replay ends (orderGrantLog)
	case "frag":
		if e.Item == nil {
			return errors.New("cluster: journal frag entry without store item")
		}
		v, err := e.Item.checkedView()
		if err == nil {
			err = n.admitItem(v)
		}
		if err != nil {
			return fmt.Errorf("cluster: replaying store item: %w", err)
		}
		n.frags.install(v, n.id)
	case "delete":
		n.frags.remove(e.GLSN)
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
