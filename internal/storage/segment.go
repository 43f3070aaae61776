package storage

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"math/big"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"confaudit/internal/crypto/accumulator"
	"confaudit/internal/storage/faultfs"
	"confaudit/internal/telemetry"
	"confaudit/internal/wire"
)

// On-disk layout. Each segment is an append-only file:
//
//	header:  8-byte magic "DLASEG1\n" + 1 flag byte ('A' append, 'S' snapshot)
//	frame:   u32le payload length | u32le CRC-32 (IEEE) of payload | payload
//	payload: uvarint(len kind) kind  uvarint(glsn)  uvarint(len data) data
//
// The highest-numbered segment is the active tail; appends go there
// until it reaches SegmentBytes, then it is sealed (fsync, whole-file
// SHA-256 folded into the running accumulator) and a fresh segment is
// created and made durable with a directory fsync — the atomic rotation.
// Snapshot segments are written by Compact and flagged in the header so
// a recovery that has lost the checkpoint can still find the replay
// base instead of double-applying pre-compaction history.

const (
	segMagic   = "DLASEG1\n"
	headerSize = len(segMagic) + 1

	flagAppend   = byte('A')
	flagSnapshot = byte('S')

	// maxFrame bounds one record frame; anything larger is corruption,
	// not data.
	maxFrame = 1 << 24

	segSuffixLive       = ".log"
	segSuffixSnapshot   = ".snap"
	segSuffixQuarantine = ".bad"

	// legacyJournal is the single-file journal node data directories
	// held before the segment store; Open refuses a directory holding it.
	legacyJournal = "node.wal"
)

// segName renders a segment file name ("seg-%016x" + suffix), chosen so
// lexical order is seq order.
func segName(seq uint64, suffix string) string {
	return fmt.Sprintf("seg-%016x%s", seq, suffix)
}

// parseSegName extracts the seq from a segment file name.
func parseSegName(name, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, "seg-") || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	hexPart := strings.TrimSuffix(strings.TrimPrefix(name, "seg-"), suffix)
	if len(hexPart) != 16 {
		return 0, false
	}
	seq, err := strconv.ParseUint(hexPart, 16, 64)
	if err != nil {
		return 0, false
	}
	return seq, true
}

// segMeta is one segment's in-memory identity.
type segMeta struct {
	seq     uint64
	records int64
	bytes   int64 // file length including header
	lo, hi  uint64
	sha     [sha256.Size]byte
	flag    byte
	inCP    bool // covered by the last durable checkpoint
}

func (m *segMeta) observe(rec Record) {
	m.records++
	if rec.GLSN != 0 {
		if m.lo == 0 || rec.GLSN < m.lo {
			m.lo = rec.GLSN
		}
		if rec.GLSN > m.hi {
			m.hi = rec.GLSN
		}
	}
}

// Disk is the crash-safe on-disk backend.
type Disk struct {
	opts   Options
	fsys   faultfs.FS
	params *accumulator.Params

	mu     sync.Mutex
	failed error

	sealed []segMeta // ascending seq, surviving (non-quarantined)
	quar   []QuarantineInfo
	cpInfo *CheckpointInfo
	cpSet  int // sealed segments covered by the durable checkpoint

	activeSeq  uint64
	active     faultfs.File
	activeMeta segMeta
	activeHash hash.Hash
	lastSync   time.Time
	unsynced   bool

	acc *big.Int // fold over surviving sealed segment SHAs

	stats struct {
		appendedBytes  int64
		fsyncs         int64
		rotations      int64
		checkpoints    int64
		scannedRecords int64
		hashedSegments int64
	}
	sealedSinceCP int
}

// openDisk recovers (or initializes) a segment store in o.Dir.
func openDisk(o Options, params *accumulator.Params, fsys faultfs.FS) (*Disk, error) {
	if params == nil {
		return nil, errors.New("storage: disk backend requires accumulator parameters")
	}
	if fsys == nil {
		fsys = faultfs.OS{}
	}
	if err := fsys.MkdirAll(o.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: creating segment dir: %w", err)
	}
	d := &Disk{opts: o, fsys: fsys, params: params}

	cp := loadCheckpoint(fsys, o.Dir, params)
	entries, err := fsys.ReadDir(o.Dir)
	if err != nil {
		return nil, fmt.Errorf("storage: listing segment dir: %w", err)
	}
	live := make(map[uint64]struct{})
	snaps := make(map[uint64]struct{})
	var bads []uint64
	for _, e := range entries {
		name := e.Name()
		if name == legacyJournal {
			// Opening around it would boot an empty node and silently
			// drop every record the old journal acknowledged.
			return nil, fmt.Errorf("storage: %s holds %s, a journal this store cannot read; refusing to open it as an empty store", o.Dir, legacyJournal)
		}
		if seq, ok := parseSegName(name, segSuffixLive); ok {
			live[seq] = struct{}{}
		} else if seq, ok := parseSegName(name, segSuffixSnapshot); ok {
			snaps[seq] = struct{}{}
		} else if seq, ok := parseSegName(name, segSuffixQuarantine); ok {
			bads = append(bads, seq)
		} else if name == checkpointTmp {
			fsys.Remove(filepath.Join(o.Dir, name)) //nolint:errcheck // stale tmp
		}
	}
	// Roll a committed-but-unrenamed compaction snapshot forward: the
	// checkpoint is the commit point, the rename is recovery's job.
	if cp != nil {
		if _, ok := live[cp.BaseSeq]; !ok {
			if _, ok := snaps[cp.BaseSeq]; ok {
				if err := fsys.Rename(
					filepath.Join(o.Dir, segName(cp.BaseSeq, segSuffixSnapshot)),
					filepath.Join(o.Dir, segName(cp.BaseSeq, segSuffixLive)),
				); err != nil {
					return nil, fmt.Errorf("storage: completing compaction: %w", err)
				}
				if err := fsys.SyncDir(o.Dir); err != nil {
					return nil, err
				}
				delete(snaps, cp.BaseSeq)
				live[cp.BaseSeq] = struct{}{}
			}
		}
	}
	// Uncommitted snapshots (crash before the checkpoint swap) are dead.
	for seq := range snaps {
		fsys.Remove(filepath.Join(o.Dir, segName(seq, segSuffixSnapshot))) //nolint:errcheck
	}

	seqs := make([]uint64, 0, len(live))
	for seq := range live {
		seqs = append(seqs, seq)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })

	// Without a trusted checkpoint the replay base is the newest
	// snapshot-flagged segment (or the oldest segment). Peeking the flag
	// byte is cheap and never trusts record contents.
	baseSeq := uint64(0)
	if cp != nil {
		baseSeq = cp.BaseSeq
	} else {
		for _, seq := range seqs {
			if flag, err := d.peekFlag(seq); err == nil && flag == flagSnapshot {
				baseSeq = seq
			}
		}
	}
	// Pre-compaction leftovers (crash before deletion) are superseded.
	kept := seqs[:0]
	for _, seq := range seqs {
		if seq < baseSeq {
			fsys.Remove(filepath.Join(o.Dir, segName(seq, segSuffixLive))) //nolint:errcheck
			continue
		}
		kept = append(kept, seq)
	}
	seqs = kept

	cpBySeq := cpLookup(cp)
	activeSeq := uint64(0)
	if n := len(seqs); n > 0 {
		activeSeq = seqs[n-1]
		if _, sealedByCP := cpBySeq[activeSeq]; sealedByCP {
			// Every segment on disk is sealed (e.g. crash right after a
			// compaction checkpoint); recovery opens a fresh tail.
			activeSeq = 0
		}
	}

	for _, seq := range seqs {
		if seq == activeSeq && activeSeq != 0 {
			continue // the tail is scanned separately below
		}
		if pin, ok := cpBySeq[seq]; ok {
			if err := d.verifyPinned(seq, pin); err != nil {
				return nil, err
			}
			continue
		}
		if err := d.verifyScanned(seq); err != nil {
			return nil, err
		}
	}

	if activeSeq != 0 {
		if err := d.recoverActive(activeSeq); err != nil {
			return nil, err
		}
	} else {
		next := uint64(1)
		if n := len(d.sealed); n > 0 {
			next = d.sealed[n-1].seq + 1
		}
		for _, q := range d.quar {
			if q.Seq >= next {
				next = q.Seq + 1
			}
		}
		if err := d.createActive(next, flagAppend); err != nil {
			return nil, err
		}
	}

	// Pre-existing quarantine files from earlier recoveries stay on the
	// status surface. The checkpoint's loss records carry the reason and
	// glsn extent known when the damage was found; the file's own
	// CRC-valid prefix is the fallback for pre-checkpoint damage.
	cpQuar := make(map[uint64]cpQuarantine)
	if cp != nil {
		for _, q := range cp.Quarantined {
			cpQuar[q.Seq] = q
		}
	}
	for _, seq := range bads {
		q := QuarantineInfo{Seq: seq, Path: filepath.Join(o.Dir, segName(seq, segSuffixQuarantine)), Reason: "quarantined by earlier recovery"}
		if rec, ok := cpQuar[seq]; ok {
			q.Reason = rec.Reason
			q.GLSNLo, q.GLSNHi = rec.GLSNLo, rec.GLSNHi
		} else if scan, err := d.scanFile(q.Path, nil); err == nil {
			q.GLSNLo, q.GLSNHi = scan.meta.lo, scan.meta.hi
		}
		d.quar = append(d.quar, q)
	}
	sort.Slice(d.quar, func(i, j int) bool { return d.quar[i].Seq < d.quar[j].Seq })

	shas := make([][]byte, 0, len(d.sealed))
	for i := range d.sealed {
		sha := d.sealed[i].sha
		shas = append(shas, sha[:])
	}
	d.acc = foldAcc(params, shas)
	if cp != nil {
		d.cpInfo = cpInfoOf(cp)
		for i := range d.sealed {
			_, d.sealed[i].inCP = cpBySeq[d.sealed[i].seq]
			if d.sealed[i].inCP {
				d.cpSet++
			} else {
				d.sealedSinceCP++
			}
		}
	} else {
		d.sealedSinceCP = len(d.sealed)
	}
	// Re-pin what recovery just verified: without this, a crash-looping
	// node whose cycles each seal fewer than CheckpointEvery segments
	// would never checkpoint, and restart scans would grow without
	// bound instead of staying O(delta). Also re-pin when this recovery
	// quarantined anything, so the loss record (reason + glsn extent)
	// survives further restarts.
	quarStale := len(d.quar) != len(cpQuar)
	for _, q := range d.quar {
		if _, ok := cpQuar[q.Seq]; !ok {
			quarStale = true
		}
	}
	if o.CheckpointEvery > 0 && (d.sealedSinceCP > 0 || quarStale) {
		if err := d.writeCheckpointLocked(); err != nil {
			return nil, fmt.Errorf("storage: re-pinning recovered segments: %w", err)
		}
	}
	return d, nil
}

func cpInfoOf(cp *checkpointFile) *CheckpointInfo {
	info := &CheckpointInfo{BaseSeq: cp.BaseSeq}
	for _, s := range cp.Segments {
		if s.Seq > info.LastSeq {
			info.LastSeq = s.Seq
		}
		info.Records += s.Records
	}
	if len(cp.Acc) > 16 {
		info.Acc = cp.Acc[:16]
	} else {
		info.Acc = cp.Acc
	}
	return info
}

// peekFlag reads a segment's header flag byte.
func (d *Disk) peekFlag(seq uint64) (byte, error) {
	f, err := d.fsys.OpenFile(filepath.Join(d.opts.Dir, segName(seq, segSuffixLive)), os.O_RDONLY, 0)
	if err != nil {
		return 0, err
	}
	defer f.Close() //nolint:errcheck
	var hdr [headerSize]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		return 0, err
	}
	if string(hdr[:len(segMagic)]) != segMagic {
		return 0, errors.New("storage: bad segment magic")
	}
	return hdr[len(segMagic)], nil
}

// verifyPinned checks a checkpointed segment with one streaming hash
// against its pinned SHA — the O(delta) shortcut: no record parsing, no
// per-record CRC, no accumulator folds for the verified prefix.
func (d *Disk) verifyPinned(seq uint64, pin cpSegment) error {
	path := filepath.Join(d.opts.Dir, segName(seq, segSuffixLive))
	f, err := d.fsys.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		return fmt.Errorf("storage: opening segment %d: %w", seq, err)
	}
	h := sha256.New()
	_, cpErr := io.Copy(h, f)
	f.Close() //nolint:errcheck
	if cpErr != nil {
		return fmt.Errorf("storage: hashing segment %d: %w", seq, cpErr)
	}
	var sha [sha256.Size]byte
	h.Sum(sha[:0])
	d.stats.hashedSegments++
	if fmt.Sprintf("%x", sha) != pin.SHA {
		return d.quarantine(seq, "checkpoint hash mismatch", pin.GLSNLo, pin.GLSNHi)
	}
	flag := flagAppend
	if pf, err := d.peekFlag(seq); err == nil {
		flag = pf
	}
	d.sealed = append(d.sealed, segMeta{
		seq: seq, records: pin.Records, bytes: pin.Bytes,
		lo: pin.GLSNLo, hi: pin.GLSNHi, sha: sha, flag: flag,
	})
	return nil
}

// verifyScanned record-level-verifies a sealed segment past the
// checkpoint. Sealed segments were fsynced before the next one was
// created, so a torn tail here is corruption, not a crash artifact.
func (d *Disk) verifyScanned(seq uint64) error {
	path := filepath.Join(d.opts.Dir, segName(seq, segSuffixLive))
	scan, err := d.scanFile(path, nil)
	if err != nil {
		return err
	}
	d.stats.scannedRecords += scan.meta.records
	if scan.corrupt != "" || scan.torn {
		reason := scan.corrupt
		if reason == "" {
			reason = "torn tail in sealed segment"
		}
		return d.quarantine(seq, reason, scan.meta.lo, scan.meta.hi)
	}
	meta := scan.meta
	meta.seq = seq
	scan.hash.Sum(meta.sha[:0])
	d.sealed = append(d.sealed, meta)
	return nil
}

// recoverActive scans the tail segment: a torn final frame is truncated
// away (those bytes were never acknowledged — append returns only after
// the frame is written and, per policy, fsynced), while corruption
// strictly inside the file quarantines the whole segment so no record
// of uncertain provenance is ever served.
func (d *Disk) recoverActive(seq uint64) error {
	path := filepath.Join(d.opts.Dir, segName(seq, segSuffixLive))
	scan, err := d.scanFile(path, nil)
	if err != nil {
		return err
	}
	d.stats.scannedRecords += scan.meta.records
	if scan.corrupt != "" {
		if err := d.quarantine(seq, scan.corrupt, scan.meta.lo, scan.meta.hi); err != nil {
			return err
		}
		return d.createActive(seq+1, flagAppend)
	}
	if scan.torn {
		f, err := d.fsys.OpenFile(path, os.O_WRONLY, 0)
		if err != nil {
			return fmt.Errorf("storage: reopening torn segment %d: %w", seq, err)
		}
		if err := f.Truncate(scan.keep); err != nil {
			f.Close() //nolint:errcheck
			return fmt.Errorf("storage: truncating torn tail of segment %d: %w", seq, err)
		}
		if err := f.Sync(); err != nil {
			f.Close() //nolint:errcheck
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		if scan.keep < int64(headerSize) {
			// Even the header was torn; recreate the segment outright.
			return d.createActive(seq, scan.flagOr(flagAppend))
		}
	}
	f, err := d.fsys.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o600)
	if err != nil {
		return fmt.Errorf("storage: opening active segment: %w", err)
	}
	d.active = f
	d.activeSeq = seq
	d.activeMeta = scan.meta
	d.activeMeta.seq = seq
	d.activeHash = scan.hash
	return nil
}

// createActive makes a fresh segment durable: header write, file fsync,
// directory fsync — the second half of an atomic rotation.
func (d *Disk) createActive(seq uint64, flag byte) error {
	path := filepath.Join(d.opts.Dir, segName(seq, segSuffixLive))
	f, err := d.fsys.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o600)
	if err != nil {
		return fmt.Errorf("storage: creating segment %d: %w", seq, err)
	}
	hdr := append([]byte(segMagic), flag)
	if _, err := f.Write(hdr); err != nil {
		f.Close() //nolint:errcheck
		return fmt.Errorf("storage: writing segment header: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close() //nolint:errcheck
		return err
	}
	if err := d.fsys.SyncDir(d.opts.Dir); err != nil {
		f.Close() //nolint:errcheck
		return err
	}
	d.active = f
	d.activeSeq = seq
	d.activeMeta = segMeta{seq: seq, bytes: int64(headerSize), flag: flag}
	d.activeHash = sha256.New()
	d.activeHash.Write(hdr)
	return nil
}

// quarantine renames a damaged segment aside and records the loss.
func (d *Disk) quarantine(seq uint64, reason string, lo, hi uint64) error {
	from := filepath.Join(d.opts.Dir, segName(seq, segSuffixLive))
	to := filepath.Join(d.opts.Dir, segName(seq, segSuffixQuarantine))
	if err := d.fsys.Rename(from, to); err != nil {
		return fmt.Errorf("storage: quarantining segment %d: %w", seq, err)
	}
	if err := d.fsys.SyncDir(d.opts.Dir); err != nil {
		return err
	}
	d.quar = append(d.quar, QuarantineInfo{Seq: seq, Path: to, Reason: reason, GLSNLo: lo, GLSNHi: hi})
	telemetry.M.Counter(telemetry.CtrStorageQuarantined).Add(1)
	return nil
}

// segScan is one file's scan result.
type segScan struct {
	meta    segMeta
	keep    int64 // valid prefix length
	torn    bool  // incomplete frame at EOF
	corrupt string
	hash    hash.Hash // over the valid prefix
	flag    byte
}

func (s *segScan) flagOr(def byte) byte {
	if s.flag == 0 {
		return def
	}
	return s.flag
}

// scanFile frame-scans a segment, CRC-checking every record and calling
// fn (when non-nil) on each. It classifies damage: a frame extending
// past EOF, or a zero-filled remainder, is a torn tail; anything else
// that fails to parse is corruption. The file is streamed through one
// reused payload buffer, so a scan allocates per record, not per
// segment.
func (d *Disk) scanFile(path string, fn func(Record) error) (*segScan, error) {
	name := filepath.Base(path)
	f, err := d.fsys.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		return nil, fmt.Errorf("storage: opening %s: %w", name, err)
	}
	defer f.Close() //nolint:errcheck // read-only
	info, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("storage: reading %s: %w", name, err)
	}
	size := info.Size()
	scan := &segScan{hash: sha256.New()}
	if size < int64(headerSize) {
		scan.torn = true
		return scan, nil
	}
	br := bufio.NewReaderSize(f, 64<<10)
	readErr := func(err error) (*segScan, error) {
		return nil, fmt.Errorf("storage: reading %s: %w", name, err)
	}
	var hdr [headerSize]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return readErr(err)
	}
	if string(hdr[:len(segMagic)]) != segMagic {
		scan.corrupt = "bad segment magic"
		return scan, nil
	}
	scan.flag = hdr[len(segMagic)]
	scan.hash.Write(hdr[:])
	var frame [8]byte
	var payload []byte
	off := int64(headerSize)
	for off < size {
		if off+8 > size {
			scan.torn = true
			break
		}
		if _, err := io.ReadFull(br, frame[:]); err != nil {
			return readErr(err)
		}
		length := int64(binary.LittleEndian.Uint32(frame[0:]))
		sum := binary.LittleEndian.Uint32(frame[4:])
		end := off + 8 + length
		if end > size {
			scan.torn = true // frame extends past EOF: crash mid-write
			break
		}
		if length > maxFrame {
			scan.corrupt = fmt.Sprintf("frame length %d exceeds limit at offset %d", length, off)
			break
		}
		if length == 0 && sum == 0 && zeroRest(br) {
			// No frame is empty. A crash after the file grew but before
			// the appended bytes landed leaves zeros: torn, not corrupt.
			scan.torn = true
			break
		}
		if int64(cap(payload)) < length {
			payload = make([]byte, length)
		}
		payload = payload[:length]
		if _, err := io.ReadFull(br, payload); err != nil {
			return readErr(err)
		}
		if crc32.ChecksumIEEE(payload) != sum {
			scan.corrupt = fmt.Sprintf("crc mismatch at offset %d", off)
			break
		}
		rec, err := decodePayload(payload)
		if err != nil {
			scan.corrupt = fmt.Sprintf("undecodable record at offset %d: %v", off, err)
			break
		}
		scan.meta.observe(rec)
		scan.hash.Write(frame[:])
		scan.hash.Write(payload)
		if fn != nil {
			rec.Data = bytes.Clone(rec.Data) // payload is reused for the next frame
			if err := fn(rec); err != nil {
				return nil, err
			}
		}
		off = end
	}
	scan.keep = off
	if scan.corrupt != "" {
		return scan, nil
	}
	scan.meta.bytes = off
	scan.meta.flag = scan.flag
	return scan, nil
}

// zeroRest consumes br and reports whether every remaining byte is zero.
func zeroRest(br *bufio.Reader) bool {
	for {
		b, err := br.ReadByte()
		if err != nil {
			return errors.Is(err, io.EOF)
		}
		if b != 0 {
			return false
		}
	}
}

// --- frame codec ---

// frameBound is an upper bound on rec's encoded frame size.
func frameBound(rec *Record) int {
	return 8 + 3*binary.MaxVarintLen64 + len(rec.Kind) + len(rec.Data)
}

// appendFrame encodes one record frame onto buf, writing the payload in
// place and filling the length and CRC header behind it.
func appendFrame(buf []byte, rec Record) []byte {
	start := len(buf)
	buf = append(buf, make([]byte, 8)...)
	buf = wire.AppendRun(buf, rec.Kind)
	buf = binary.AppendUvarint(buf, rec.GLSN)
	buf = wire.AppendRun(buf, rec.Data)
	payload := buf[start+8:]
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[start+4:], crc32.ChecksumIEEE(payload))
	return buf
}

// decodePayload parses one frame payload. The returned Data aliases
// payload.
func decodePayload(payload []byte) (Record, error) {
	var rec Record
	d := wire.NewDec(payload)
	var err error
	if rec.Kind, err = d.Str(); err != nil {
		return rec, fmt.Errorf("kind: %w", err)
	}
	if rec.GLSN, err = d.Num(); err != nil {
		return rec, fmt.Errorf("glsn: %w", err)
	}
	if rec.Data, err = d.Run(); err == nil {
		err = d.Done()
	}
	if err != nil {
		return rec, fmt.Errorf("data: %w", err)
	}
	return rec, nil
}

// --- Store interface ---

// fail poisons the store: durability can no longer be promised, so
// every further mutation is refused until the store is reopened. The
// poisoning is recorded in the flight recorder once, before any caller
// observes the failure, so triage finds the cause ahead of the refused
// writes that follow.
func (d *Disk) fail(err error) error {
	if d.failed == nil {
		d.failed = fmt.Errorf("%w: %v", ErrFailed, err)
		telemetry.F.Record(telemetry.FlightEvent{
			Kind: telemetry.FlightJournalPoison, Outcome: telemetry.ErrClass(err),
		})
	}
	return d.failed
}

// AppendBatch journals records with one write and (per policy) one
// fsync — the group commit. The whole batch is a single Write call, so
// a crash mid-batch leaves a torn tail that recovery truncates; none of
// it was acknowledged.
func (d *Disk) AppendBatch(recs []Record) error {
	if len(recs) == 0 {
		return nil
	}
	size := 0
	for i := range recs {
		size += frameBound(&recs[i])
	}
	buf := make([]byte, 0, size)
	for i := range recs {
		buf = appendFrame(buf, recs[i])
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.failed != nil {
		return d.failed
	}
	if _, err := d.active.Write(buf); err != nil {
		return d.fail(err)
	}
	d.activeHash.Write(buf)
	d.activeMeta.bytes += int64(len(buf))
	for i := range recs {
		d.activeMeta.observe(recs[i])
	}
	d.stats.appendedBytes += int64(len(buf))
	d.unsynced = true
	if err := d.maybeSyncLocked(); err != nil {
		return err
	}
	if d.activeMeta.bytes >= d.opts.SegmentBytes {
		if err := d.rotateLocked(); err != nil {
			return err
		}
	}
	return nil
}

// maybeSyncLocked applies the sync policy to the freshly written tail.
func (d *Disk) maybeSyncLocked() error {
	switch d.opts.Sync {
	case SyncAlways:
		return d.syncLocked()
	case SyncInterval:
		if time.Since(d.lastSync) >= d.opts.SyncEvery {
			return d.syncLocked()
		}
	case SyncNever:
	}
	return nil
}

// fsyncStallThreshold is the fsync duration beyond which a
// wal.fsync_stall flight event is recorded: a healthy fsync is
// sub-millisecond on SSDs, and a multi-hundred-ms stall is the usual
// smoking gun behind a collapsed ingest knee.
const fsyncStallThreshold = 100 * time.Millisecond

func (d *Disk) syncLocked() error {
	if !d.unsynced {
		return nil
	}
	start := time.Now()
	err := d.active.Sync()
	dur := time.Since(start)
	telemetry.M.Histogram(telemetry.HistWALFsync).Observe(dur)
	if dur >= fsyncStallThreshold {
		telemetry.F.Record(telemetry.FlightEvent{
			Kind: telemetry.FlightFsyncStall, DurMS: float64(dur.Microseconds()) / 1000,
			Outcome: telemetry.ErrClass(err),
		})
	}
	if err != nil {
		return d.fail(err)
	}
	d.unsynced = false
	d.lastSync = time.Now()
	d.stats.fsyncs++
	telemetry.M.Counter(telemetry.CtrStorageFsync).Add(1)
	return nil
}

// rotateLocked seals the active segment and opens the next: fsync, fold
// the sealed file's SHA into the accumulator, create the successor
// durably. On any error the store is poisoned rather than left with a
// dangling tail.
func (d *Disk) rotateLocked() error {
	if err := d.syncLocked(); err != nil {
		return err
	}
	if err := d.active.Close(); err != nil {
		return d.fail(err)
	}
	meta := d.activeMeta
	d.activeHash.Sum(meta.sha[:0])
	d.sealed = append(d.sealed, meta)
	d.acc = d.params.Accumulate(d.acc, meta.sha[:])
	d.stats.rotations++
	d.sealedSinceCP++
	telemetry.M.Counter(telemetry.CtrStorageRotations).Add(1)
	if err := d.createActive(meta.seq+1, flagAppend); err != nil {
		return d.fail(err)
	}
	if d.opts.CheckpointEvery > 0 && d.sealedSinceCP >= d.opts.CheckpointEvery {
		if err := d.writeCheckpointLocked(); err != nil {
			return d.fail(err)
		}
	}
	return nil
}

// writeCheckpointLocked pins the current sealed set. BaseSeq is
// unchanged (only Compact moves it).
func (d *Disk) writeCheckpointLocked() error {
	baseSeq := uint64(1)
	if d.cpInfo != nil {
		baseSeq = d.cpInfo.BaseSeq
	} else if len(d.sealed) > 0 {
		baseSeq = d.sealed[0].seq
	}
	cp := &checkpointFile{BaseSeq: baseSeq, Acc: d.acc.Text(16)}
	for i := range d.sealed {
		m := &d.sealed[i]
		cp.Segments = append(cp.Segments, cpSegment{
			Seq: m.seq, SHA: fmt.Sprintf("%x", m.sha), Records: m.records,
			Bytes: m.bytes, GLSNLo: m.lo, GLSNHi: m.hi,
		})
	}
	for _, q := range d.quar {
		cp.Quarantined = append(cp.Quarantined, cpQuarantine{
			Seq: q.Seq, Reason: q.Reason, GLSNLo: q.GLSNLo, GLSNHi: q.GLSNHi,
		})
	}
	if err := writeCheckpoint(d.fsys, d.opts.Dir, cp); err != nil {
		return err
	}
	for i := range d.sealed {
		d.sealed[i].inCP = true
	}
	d.cpSet = len(d.sealed)
	d.cpInfo = cpInfoOf(cp)
	d.sealedSinceCP = 0
	d.stats.checkpoints++
	telemetry.M.Counter(telemetry.CtrStorageCheckpoints).Add(1)
	return nil
}

// Compact atomically replaces history with the snapshot. Commit order:
// snapshot file fsynced under a temporary name, checkpoint swap (the
// commit point), snapshot rename, then deletion of superseded segments.
// A crash at any step recovers to either the old or the new history.
func (d *Disk) Compact(snapshot []Record) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.failed != nil {
		return d.failed
	}
	// Seal the current tail so every pre-snapshot segment is inert.
	if err := d.syncLocked(); err != nil {
		return err
	}
	if err := d.active.Close(); err != nil {
		return d.fail(err)
	}
	snapSeq := d.activeSeq + 1

	size := headerSize
	for i := range snapshot {
		size += frameBound(&snapshot[i])
	}
	buf := append(make([]byte, 0, size), segMagic...)
	buf = append(buf, flagSnapshot)
	meta := segMeta{seq: snapSeq, bytes: int64(len(buf)), flag: flagSnapshot}
	for i := range snapshot {
		before := len(buf)
		buf = appendFrame(buf, snapshot[i])
		meta.observe(snapshot[i])
		meta.bytes += int64(len(buf) - before)
	}
	snapTmp := filepath.Join(d.opts.Dir, segName(snapSeq, segSuffixSnapshot))
	f, err := d.fsys.OpenFile(snapTmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o600)
	if err != nil {
		return d.fail(err)
	}
	if _, err := f.Write(buf); err != nil {
		f.Close() //nolint:errcheck
		return d.fail(err)
	}
	if err := f.Sync(); err != nil {
		f.Close() //nolint:errcheck
		return d.fail(err)
	}
	if err := f.Close(); err != nil {
		return d.fail(err)
	}
	meta.sha = sha256.Sum256(buf)

	cp := &checkpointFile{
		BaseSeq: snapSeq,
		Segments: []cpSegment{{
			Seq: snapSeq, SHA: fmt.Sprintf("%x", meta.sha), Records: meta.records,
			Bytes: meta.bytes, GLSNLo: meta.lo, GLSNHi: meta.hi,
		}},
		Acc: foldAcc(d.params, [][]byte{meta.sha[:]}).Text(16),
	}
	if err := writeCheckpoint(d.fsys, d.opts.Dir, cp); err != nil {
		return d.fail(err)
	}
	if err := d.fsys.Rename(snapTmp, filepath.Join(d.opts.Dir, segName(snapSeq, segSuffixLive))); err != nil {
		return d.fail(err)
	}
	if err := d.fsys.SyncDir(d.opts.Dir); err != nil {
		return d.fail(err)
	}
	// Superseded history (including the just-sealed tail) goes away.
	for i := range d.sealed {
		d.fsys.Remove(filepath.Join(d.opts.Dir, segName(d.sealed[i].seq, segSuffixLive))) //nolint:errcheck
	}
	d.fsys.Remove(filepath.Join(d.opts.Dir, segName(d.activeSeq, segSuffixLive))) //nolint:errcheck

	meta.inCP = true
	d.sealed = []segMeta{meta}
	d.cpSet = 1
	d.acc = foldAcc(d.params, [][]byte{meta.sha[:]})
	d.cpInfo = cpInfoOf(cp)
	d.sealedSinceCP = 0
	d.stats.checkpoints++
	telemetry.M.Counter(telemetry.CtrStorageCheckpoints).Add(1)
	if err := d.createActive(snapSeq+1, flagAppend); err != nil {
		return d.fail(err)
	}
	return nil
}

// NeedsCompaction reports whether enough sealed history has accumulated
// past the last compaction base that a snapshot rewrite would bound the
// next restart's replay. The node's background loop polls this.
func (d *Disk) NeedsCompaction() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.failed != nil {
		return false
	}
	n := 0
	for i := range d.sealed {
		if d.sealed[i].flag != flagSnapshot {
			n++
		}
	}
	return n >= d.opts.CompactSegments
}

// Replay streams every surviving record in order: checkpointed
// segments, delta segments, then the active tail.
func (d *Disk) Replay(fn func(Record) error) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	paths := make([]string, 0, len(d.sealed)+1)
	for i := range d.sealed {
		paths = append(paths, filepath.Join(d.opts.Dir, segName(d.sealed[i].seq, segSuffixLive)))
	}
	if d.activeMeta.records > 0 {
		paths = append(paths, filepath.Join(d.opts.Dir, segName(d.activeSeq, segSuffixLive)))
	}
	for _, p := range paths {
		scan, err := d.scanFile(p, fn)
		if err != nil {
			return err
		}
		if scan.corrupt != "" {
			return fmt.Errorf("storage: segment %s corrupted after recovery: %s", filepath.Base(p), scan.corrupt)
		}
	}
	return nil
}

// Sync forces the tail to durable media.
func (d *Disk) Sync() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.failed != nil {
		return d.failed
	}
	return d.syncLocked()
}

// Status snapshots the engine.
func (d *Disk) Status() Status {
	d.mu.Lock()
	defer d.mu.Unlock()
	st := Status{
		Backend:                BackendDisk,
		Dir:                    d.opts.Dir,
		AppendedBytes:          d.stats.appendedBytes,
		RecoveryScannedRecords: d.stats.scannedRecords,
		RecoveryHashedSegments: d.stats.hashedSegments,
		Fsyncs:                 d.stats.fsyncs,
		Rotations:              d.stats.rotations,
		Checkpoints:            d.stats.checkpoints,
	}
	for i := range d.sealed {
		m := &d.sealed[i]
		st.Records += m.records
		st.Segments = append(st.Segments, SegmentInfo{
			Seq: m.seq, Records: m.records, Bytes: m.bytes,
			GLSNLo: m.lo, GLSNHi: m.hi, Sealed: true, Checkpointed: m.inCP,
		})
	}
	st.Records += d.activeMeta.records
	st.Segments = append(st.Segments, SegmentInfo{
		Seq: d.activeSeq, Records: d.activeMeta.records, Bytes: d.activeMeta.bytes,
		GLSNLo: d.activeMeta.lo, GLSNHi: d.activeMeta.hi,
	})
	if d.cpInfo != nil {
		cp := *d.cpInfo
		st.Checkpoint = &cp
	}
	st.Quarantined = append(st.Quarantined, d.quar...)
	if d.failed != nil {
		st.Failed = d.failed.Error()
	}
	return st
}

// Quarantined returns the segments recovery refused to serve.
func (d *Disk) Quarantined() []QuarantineInfo {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]QuarantineInfo(nil), d.quar...)
}

// Close seals nothing but flushes and fsyncs the tail.
func (d *Disk) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.active == nil {
		return nil
	}
	syncErr := error(nil)
	if d.failed == nil {
		syncErr = d.syncLocked()
	}
	closeErr := d.active.Close()
	d.active = nil
	if syncErr != nil {
		return syncErr
	}
	return closeErr
}
