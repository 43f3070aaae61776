package cluster

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/big"
	"os"
	"path/filepath"
	"sync"
	"time"

	"confaudit/internal/logmodel"
	"confaudit/internal/storage"
	"confaudit/internal/telemetry"
	"confaudit/internal/ticket"
	"confaudit/internal/workpool"
)

// Durable node state. A DLA node journals every state mutation — ticket
// registrations, certified glsn grants, fragment stores/deletes — to an
// append-only log, and replays it on restart. Without a WAL a node
// restart silently loses its fragment slice, breaking both integrity
// circulation and audit completeness for every record it held.

// walEntry is one journaled mutation.
type walEntry struct {
	Kind string `json:"kind"` // "ticket" | "grant" | "frag" | "delete"

	Ticket   *wireTicket        `json:"ticket,omitempty"`
	TicketID string             `json:"ticket_id,omitempty"`
	GLSN     logmodel.GLSN      `json:"glsn,omitempty"`
	Count    int                `json:"count,omitempty"` // grant range size; 0/absent means 1
	Fragment *logmodel.Fragment `json:"fragment,omitempty"`
	Digest   *big.Int           `json:"digest,omitempty"`
	// DigestExp is the writer-shipped digest exponent for records whose
	// digest element is materialized lazily (see Node.Digest).
	DigestExp *big.Int `json:"dexp,omitempty"`
	Prov      *big.Int `json:"prov,omitempty"`
	// WitnessExp is the writer-shipped membership-witness exponent; the
	// group element is rematerialized lazily after replay, never stored.
	WitnessExp *big.Int `json:"wexp,omitempty"`
}

// WAL is an append-only journal of node state in CRC-framed binary
// records.
type WAL struct {
	mu  sync.Mutex
	dir string
	f   *os.File
	bw  *bufio.Writer

	// syncPolicy governs when acknowledged appends are fsynced. The
	// pre-PR6 WAL flushed to the OS but never fsynced, so a machine
	// crash (not just a process crash) could lose acknowledged
	// mutations; the default is now storage.SyncAlways.
	syncPolicy storage.SyncPolicy
	syncEvery  time.Duration
	lastSync   time.Time

	// failed poisons the journal after an I/O failure that leaves its
	// durable state unknowable (a failed fsync, a rewrite that could not
	// reopen the live handle). Every later mutation is refused.
	failed error

	// pending holds encoded record groups whose journal position has
	// been reserved (journalBatch.stage, called under the node state
	// lock) but whose bytes have not reached the buffered writer yet.
	// Every write path drains this queue before adding its own records,
	// so on-disk record order always matches the reservation order —
	// which is the in-memory apply order.
	pending [][][]byte
}

// walFile names the journal inside a node data directory.
const walFile = "node.wal"

// Binary WAL record framing. Every entry is the compact wire encoding
// from wirecodec.go, framed as
//
//	0xDA ‖ version ‖ uvarint(len) ‖ payload ‖ crc32(payload) LE
const (
	walBinMagic   = 0xDA
	walBinVersion = 1
	// walMaxRecord bounds a claimed payload length during replay; a
	// larger claim is corruption, not a record worth buffering.
	walMaxRecord = 16 << 20
)

// encodeWALRecord frames one entry as a binary journal record.
func encodeWALRecord(e *walEntry) ([]byte, error) {
	payload := make([]byte, 0, walEntrySize(e))
	payload, err := appendWALEntry(payload, e)
	if err != nil {
		return nil, err
	}
	rec := make([]byte, 0, 2+binary.MaxVarintLen64+len(payload)+4)
	rec = append(rec, walBinMagic, walBinVersion)
	rec = binary.AppendUvarint(rec, uint64(len(payload)))
	rec = append(rec, payload...)
	rec = binary.LittleEndian.AppendUint32(rec, crc32.ChecksumIEEE(payload))
	telemetry.M.Counter(telemetry.CtrWALBinaryRecords).Add(1)
	return rec, nil
}

// encodeWALRecords frames a batch, fanning the per-entry encode (and
// CRC) over the shared worker pool for large groups. Encoding happens
// before the journal lock, which is what lets the group commit overlap
// the in-memory apply on the batched store path.
func encodeWALRecords(entries []walEntry) ([][]byte, error) {
	defer telemetry.M.Histogram(telemetry.HistWALEncode).Since(time.Now())
	recs := make([][]byte, len(entries))
	if len(entries) >= ingestFanoutThreshold {
		if err := workpool.Map(len(entries), func(i int) error {
			var err error
			recs[i], err = encodeWALRecord(&entries[i])
			return err
		}); err != nil {
			return nil, err
		}
		return recs, nil
	}
	for i := range entries {
		var err error
		if recs[i], err = encodeWALRecord(&entries[i]); err != nil {
			return nil, err
		}
	}
	return recs, nil
}

// OpenWAL opens (creating if necessary) the journal in dir with the
// fsync-per-append policy.
func OpenWAL(dir string) (*WAL, error) {
	return OpenWALSync(dir, storage.SyncAlways, 0)
}

// OpenWALSync opens the journal with an explicit sync policy. every is
// the fsync interval under storage.SyncInterval (0 means 50ms).
func OpenWALSync(dir string, policy storage.SyncPolicy, every time.Duration) (*WAL, error) {
	switch policy {
	case "", storage.SyncAlways, storage.SyncInterval, storage.SyncNever:
	default:
		return nil, fmt.Errorf("cluster: unknown WAL sync policy %q", policy)
	}
	if policy == "" {
		policy = storage.SyncAlways
	}
	if every <= 0 {
		every = 50 * time.Millisecond
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cluster: creating data dir: %w", err)
	}
	f, err := os.OpenFile(filepath.Join(dir, walFile), os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o600)
	if err != nil {
		return nil, fmt.Errorf("cluster: opening WAL: %w", err)
	}
	return &WAL{dir: dir, f: f, bw: bufio.NewWriter(f), syncPolicy: policy, syncEvery: every}, nil
}

// syncDir fsyncs a directory so renames inside it survive power loss.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	syncErr := d.Sync()
	closeErr := d.Close()
	if syncErr != nil {
		return syncErr
	}
	return closeErr
}

// poison marks the journal failed and records the incident in the
// flight recorder — by contract BEFORE any caller observes the
// failure, so post-incident triage always finds the poisoning event
// even if the node dies moments later.
func (w *WAL) poison(err error) error {
	w.failed = err
	telemetry.F.Record(telemetry.FlightEvent{
		Kind: telemetry.FlightJournalPoison, Outcome: telemetry.ErrClass(err),
	})
	return w.failed
}

// fsyncStallThreshold is the WAL fsync duration beyond which a
// wal.fsync_stall flight event is recorded: a healthy fsync is
// sub-millisecond on SSDs, and a multi-hundred-ms stall is the usual
// smoking gun behind a collapsed ingest knee.
const fsyncStallThreshold = 100 * time.Millisecond

// flushLocked flushes the buffered writer and applies the sync policy.
// An fsync failure poisons the journal: the OS may or may not have the
// bytes, so no further acknowledgement can be honest.
func (w *WAL) flushLocked() error {
	if err := w.bw.Flush(); err != nil {
		return w.poison(fmt.Errorf("%w: %v", storage.ErrFailed, err))
	}
	doSync := false
	switch w.syncPolicy {
	case storage.SyncAlways, "":
		doSync = true
	case storage.SyncInterval:
		doSync = time.Since(w.lastSync) >= w.syncEvery
	case storage.SyncNever:
	}
	if !doSync {
		return nil
	}
	syncStart := time.Now()
	err := w.f.Sync()
	syncDur := time.Since(syncStart)
	telemetry.M.Histogram(telemetry.HistWALFsync).Observe(syncDur)
	if syncDur >= fsyncStallThreshold {
		telemetry.F.Record(telemetry.FlightEvent{
			Kind: telemetry.FlightFsyncStall, DurMS: float64(syncDur.Microseconds()) / 1000,
			Outcome: telemetry.ErrClass(err),
		})
	}
	if err != nil {
		return w.poison(fmt.Errorf("%w: %v", storage.ErrFailed, err))
	}
	w.lastSync = time.Now()
	telemetry.M.Counter(telemetry.CtrStorageFsync).Add(1)
	return nil
}

// rewrite atomically replaces the journal with a snapshot of entries.
func (w *WAL) rewrite(entries []walEntry) error {
	if w == nil {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.failed != nil {
		return w.failed
	}
	tmpPath := filepath.Join(w.dir, walFile+".tmp")
	tmp, err := os.OpenFile(tmpPath, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o600)
	if err != nil {
		return fmt.Errorf("cluster: creating snapshot: %w", err)
	}
	bw := bufio.NewWriter(tmp)
	for i := range entries {
		rec, err := encodeWALRecord(&entries[i])
		if err != nil {
			tmp.Close() //nolint:errcheck
			return fmt.Errorf("cluster: encoding snapshot entry: %w", err)
		}
		if _, err := bw.Write(rec); err != nil {
			tmp.Close() //nolint:errcheck
			return fmt.Errorf("cluster: writing snapshot: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		tmp.Close() //nolint:errcheck
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close() //nolint:errcheck
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmpPath, filepath.Join(w.dir, walFile)); err != nil {
		return fmt.Errorf("cluster: swapping snapshot: %w", err)
	}
	// The rename is only durable once the directory itself is synced.
	if err := syncDir(w.dir); err != nil {
		return w.poison(fmt.Errorf("%w: %v", storage.ErrFailed, err))
	}
	// Reopen the live handle on the new file. Failures here must be
	// loud: a nil writer behind a "successful" rewrite would panic the
	// next append, and a silently dropped old-handle flush error is how
	// durable state diverges from memory. The journal is poisoned
	// instead so every later append refuses.
	w.bw.Flush() //nolint:errcheck // old file is obsolete post-swap
	w.f.Close()  //nolint:errcheck
	f, err := os.OpenFile(filepath.Join(w.dir, walFile), os.O_APPEND|os.O_WRONLY, 0o600)
	if err != nil {
		w.f, w.bw = nil, nil
		return w.poison(fmt.Errorf("%w: reopening WAL after snapshot: %v", storage.ErrFailed, err))
	}
	w.f = f
	w.bw = bufio.NewWriter(f)
	return nil
}

// append journals one entry. Errors are returned so callers can refuse
// the mutation rather than diverge from disk.
func (w *WAL) append(e walEntry) error {
	if w == nil {
		return nil
	}
	defer telemetry.M.Histogram(telemetry.HistWALFlush).Since(time.Now())
	rec, err := encodeWALRecord(&e)
	if err != nil {
		return err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.failed != nil {
		return w.failed
	}
	if err := w.drainLocked(); err != nil {
		return err
	}
	if _, err := w.bw.Write(rec); err != nil {
		return fmt.Errorf("cluster: appending WAL entry: %w", err)
	}
	return w.flushLocked()
}

// appendBatch journals several entries under one lock acquisition and a
// single flush — the group commit behind the batched write path. Either
// every entry reaches the buffered writer or the error aborts the batch
// before the flush, so a crash leaves at most a torn tail that replay
// already tolerates.
func (w *WAL) appendBatch(entries []walEntry) error {
	if w == nil || len(entries) == 0 {
		return nil
	}
	defer telemetry.M.Histogram(telemetry.HistWALFlush).Since(time.Now())
	recs, err := encodeWALRecords(entries)
	if err != nil {
		return err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.failed != nil {
		return w.failed
	}
	if err := w.drainLocked(); err != nil {
		return err
	}
	for _, rec := range recs {
		if _, err := w.bw.Write(rec); err != nil {
			return fmt.Errorf("cluster: appending WAL entry: %w", err)
		}
	}
	return w.flushLocked()
}

// drainLocked writes every staged record group to the buffered writer
// in reservation order. A write failure poisons the journal: part of a
// reserved group may already be buffered, so the durable record order
// is no longer knowable and no later acknowledgement can be honest.
func (w *WAL) drainLocked() error {
	for len(w.pending) > 0 {
		for _, rec := range w.pending[0] {
			if _, err := w.bw.Write(rec); err != nil {
				return w.poison(fmt.Errorf("%w: appending staged WAL entry: %v", storage.ErrFailed, err))
			}
		}
		w.pending = w.pending[1:]
	}
	return nil
}

// walStagedBatch is a prepared group commit against the *WAL backend.
type walStagedBatch struct {
	w    *WAL
	recs [][]byte
}

// prepareBatch encodes a batch off every lock. The returned handle is
// staged under the node state lock (fixing the records' journal
// position relative to every later append) and committed off-lock
// (write, flush, fsync). An encode error surfaces here, before the
// caller has mutated any state.
func (w *WAL) prepareBatch(entries []walEntry) (journalBatch, error) {
	if w == nil || len(entries) == 0 {
		return noopStagedBatch{}, nil
	}
	recs, err := encodeWALRecords(entries)
	if err != nil {
		return nil, err
	}
	return &walStagedBatch{w: w, recs: recs}, nil
}

// stage reserves the batch's position in the journal write stream.
// Memory-only: safe to call under the node state lock. The stage
// histogram is dominated by journal-lock contention — a committing
// batch holding w.mu is what a slow stage means.
func (b *walStagedBatch) stage() {
	defer telemetry.M.Histogram(telemetry.HistWALStage).Since(time.Now())
	b.w.mu.Lock()
	b.w.pending = append(b.w.pending, b.recs)
	b.w.mu.Unlock()
}

// commit drains the staged queue through this batch and flushes per the
// sync policy. Any failure poisons the journal (via drainLocked or
// flushLocked), so a batch that was applied in memory but never reached
// disk cannot leave the node silently serving unjournaled state.
func (b *walStagedBatch) commit() error {
	defer telemetry.M.Histogram(telemetry.HistWALFlush).Since(time.Now())
	w := b.w
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.failed != nil {
		return w.failed
	}
	if err := w.drainLocked(); err != nil {
		return err
	}
	return w.flushLocked()
}

// Close flushes, fsyncs, and closes the journal.
func (w *WAL) Close() error {
	if w == nil {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return w.failed
	}
	if w.failed != nil {
		w.f.Close() //nolint:errcheck // already poisoned; release the handle
		return w.failed
	}
	if err := w.drainLocked(); err != nil {
		w.f.Close() //nolint:errcheck
		return err
	}
	if err := w.bw.Flush(); err != nil {
		w.f.Close() //nolint:errcheck
		return err
	}
	if err := w.f.Sync(); err != nil {
		w.f.Close() //nolint:errcheck
		return err
	}
	return w.f.Close()
}

// ReplayWAL streams the journal in dir (if any) to fn in append order.
// A missing journal is not an error (fresh node). Every record carries
// the binary framing from encodeWALRecord; a record that does not open
// with the magic byte is corruption. A torn final record — the node
// crashed mid-append, leaving a half-written or zero-filled frame —
// stops the replay
// at the last intact entry instead of failing the whole recovery; every
// complete entry was flushed before its mutation was acknowledged, so
// the torn tail was never promised to anyone. Corruption anywhere
// before the final record still fails the replay.
func ReplayWAL(dir string, fn func(walEntry) error) error {
	f, err := os.Open(filepath.Join(dir, walFile))
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("cluster: opening WAL for replay: %w", err)
	}
	defer f.Close() //nolint:errcheck
	br := bufio.NewReader(f)
	for {
		first, err := br.Peek(1)
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return fmt.Errorf("cluster: reading WAL: %w", err)
		}
		if first[0] != walBinMagic {
			// A crash after the file grew but before the appended bytes
			// landed leaves a zero-filled tail: torn, not corrupt.
			if zeroTail(br) {
				return nil
			}
			return fmt.Errorf("cluster: corrupt WAL record: leading byte 0x%02x", first[0])
		}
		e, ok, err := readBinaryWALRecord(br)
		if err != nil {
			return err
		}
		if !ok {
			return nil // torn final append; recover up to here
		}
		if err := fn(e); err != nil {
			return err
		}
	}
}

// zeroTail reports whether everything left in br is zero bytes.
func zeroTail(br *bufio.Reader) bool {
	for {
		b, err := br.ReadByte()
		if errors.Is(err, io.EOF) {
			return true
		}
		if err != nil || b != 0 {
			return false
		}
	}
}

// tornErr reports whether a read failed because the file simply ended —
// the signature of a record cut off by a crash mid-append.
func tornErr(err error) bool {
	return errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF)
}

// readBinaryWALRecord consumes one binary record (the magic byte is
// still unread). ok=false with a nil error means a torn tail: the file
// ended inside the record, so replay stops at the previous entry.
func readBinaryWALRecord(br *bufio.Reader) (walEntry, bool, error) {
	var e walEntry
	hdr := make([]byte, 2)
	if _, err := io.ReadFull(br, hdr); err != nil {
		if tornErr(err) {
			return e, false, nil
		}
		return e, false, fmt.Errorf("cluster: reading WAL: %w", err)
	}
	if hdr[1] != walBinVersion {
		return e, false, fmt.Errorf("cluster: corrupt WAL record: version %d", hdr[1])
	}
	n, err := binary.ReadUvarint(br)
	if err != nil {
		if tornErr(err) {
			return e, false, nil
		}
		return e, false, fmt.Errorf("cluster: reading WAL: %w", err)
	}
	if n > walMaxRecord {
		return e, false, fmt.Errorf("cluster: corrupt WAL record: %d-byte payload", n)
	}
	buf := make([]byte, int(n)+4)
	if _, err := io.ReadFull(br, buf); err != nil {
		if tornErr(err) {
			return e, false, nil
		}
		return e, false, fmt.Errorf("cluster: reading WAL: %w", err)
	}
	payload, sum := buf[:n], binary.LittleEndian.Uint32(buf[n:])
	if crc32.ChecksumIEEE(payload) != sum {
		// A checksum mismatch on the very last record is a partial
		// final write (power loss can zero-fill a tail the filesystem
		// never truncated); anywhere else it is corruption.
		if _, err := br.Peek(1); errors.Is(err, io.EOF) {
			return e, false, nil
		}
		return e, false, errors.New("cluster: corrupt WAL record: checksum mismatch")
	}
	e, err = decodeWALEntry(payload)
	if err != nil {
		return e, false, fmt.Errorf("cluster: corrupt WAL entry: %w", err)
	}
	return e, true, nil
}

// CompactStorage rewrites the journal as a snapshot of the node's
// current state, discarding superseded entries (overwritten fragments,
// delete tombstones). It holds the compaction fence and the node's
// state lock across snapshot and swap, so no mutation — including a
// pipelined batch append running off the state lock — can land in the
// discarded journal.
func (n *Node) CompactStorage() error {
	if !n.durable {
		return nil
	}
	n.compactMu.Lock()
	defer n.compactMu.Unlock()
	n.mu.Lock()
	defer n.mu.Unlock()
	entries := make([]walEntry, 0, len(n.frags)+64)
	for _, id := range n.acl.TicketIDs() {
		tk, _ := n.acl.Ticket(id)
		wt := ToWire(tk)
		entries = append(entries, walEntry{Kind: "ticket", Ticket: &wt})
	}
	for _, id := range n.acl.TicketIDs() {
		for _, g := range n.acl.Glsns(id) {
			entries = append(entries, walEntry{Kind: "grant", TicketID: id, GLSN: g})
		}
	}
	for g := range n.frags {
		frag := n.frags[g]
		e := walEntry{Kind: "frag", Fragment: &frag}
		if d, ok := n.digests[g]; ok {
			e.Digest = d
		} else if x, ok := n.digExps[g]; ok {
			e.DigestExp = x
		}
		if p, ok := n.provs[g]; ok {
			e.Prov = p
		}
		if w, ok := n.witExps[g]; ok {
			e.WitnessExp = w
		}
		entries = append(entries, e)
	}
	return n.wal.rewrite(entries)
}

// applyWALEntry applies one journaled mutation to the node's in-memory
// state. It is shared by every recovery path (WAL replay and
// segment-store replay) and tolerates duplicates: a checkpoint snapshot
// followed by a delta that re-journals the same ticket or grant must
// converge, not fail, because registration and grants are idempotent
// facts, not counters.
func (n *Node) applyWALEntry(e walEntry) error {
	switch e.Kind {
	case "ticket":
		if e.Ticket == nil {
			return errors.New("cluster: WAL ticket entry without ticket")
		}
		if err := n.acl.Register(e.Ticket.ticket()); err != nil {
			if errors.Is(err, ticket.ErrDuplicateTicket) {
				return nil
			}
			return fmt.Errorf("cluster: replaying ticket: %w", err)
		}
	case "grant":
		count := e.Count
		if count < 1 {
			count = 1
		}
		for g := e.GLSN; g < e.GLSN+logmodel.GLSN(count); g++ {
			if err := n.acl.Grant(e.TicketID, g); err != nil {
				if errors.Is(err, ticket.ErrUnknownTicket) {
					// The registration entry was lost with a quarantined
					// segment. The node still boots (degraded, with the
					// loss named in its quarantine extents); the grant is
					// skipped rather than failing the whole recovery, and
					// the glsn counter still advances so the sequencer
					// never reissues it.
					if g >= n.nextGLSN {
						n.nextGLSN = g + 1
					}
					continue
				}
				return fmt.Errorf("cluster: replaying grant: %w", err)
			}
			if g >= n.nextGLSN {
				n.nextGLSN = g + 1
			}
		}
	case "frag":
		if e.Fragment == nil {
			return errors.New("cluster: WAL frag entry without fragment")
		}
		if old, ok := n.frags[e.Fragment.GLSN]; ok {
			n.indexRemove(old)
		}
		n.frags[e.Fragment.GLSN] = *e.Fragment
		n.indexAdd(*e.Fragment)
		if e.Digest != nil {
			n.digests[e.Fragment.GLSN] = e.Digest
			delete(n.digExps, e.Fragment.GLSN)
		} else if e.DigestExp != nil {
			n.digExps[e.Fragment.GLSN] = e.DigestExp
			delete(n.digests, e.Fragment.GLSN)
		}
		if e.Prov != nil {
			n.provs[e.Fragment.GLSN] = e.Prov
		}
		delete(n.witCache, e.Fragment.GLSN)
		if e.WitnessExp != nil {
			n.witExps[e.Fragment.GLSN] = e.WitnessExp
		} else {
			delete(n.witExps, e.Fragment.GLSN)
		}
	case "delete":
		if old, ok := n.frags[e.GLSN]; ok {
			n.indexRemove(old)
		}
		delete(n.frags, e.GLSN)
		delete(n.digests, e.GLSN)
		delete(n.digExps, e.GLSN)
		delete(n.provs, e.GLSN)
		delete(n.witExps, e.GLSN)
		delete(n.witCache, e.GLSN)
	default:
		return fmt.Errorf("cluster: unknown WAL entry kind %q", e.Kind)
	}
	return nil
}

// restore applies the journal in dir to the node's in-memory state.
// Called from New before the node serves traffic.
func (n *Node) restore(dir string) error {
	return ReplayWAL(dir, n.applyWALEntry)
}
