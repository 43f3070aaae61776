package storage

import (
	"crypto/rand"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"confaudit/internal/crypto/accumulator"
	"confaudit/internal/storage/faultfs"
)

var testParams = func() *accumulator.Params {
	p, err := accumulator.GenerateParams(rand.Reader, 256)
	if err != nil {
		panic(err)
	}
	return p
}()

// diskOpts builds small-segment options so tests exercise rotation.
func diskOpts(dir string) Options {
	return Options{
		Backend:         BackendDisk,
		Dir:             dir,
		Sync:            SyncAlways,
		SegmentBytes:    512,
		CheckpointEvery: 2,
		CompactSegments: 3,
	}
}

func mustOpen(t *testing.T, o Options, fsys faultfs.FS) Store {
	t.Helper()
	s, err := Open(o, testParams, fsys)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s
}

func rec(glsn uint64) Record {
	return Record{Kind: "frag", GLSN: glsn, Data: []byte(fmt.Sprintf("payload-%06d", glsn))}
}

func collect(t *testing.T, s Store) []Record {
	t.Helper()
	var out []Record
	if err := s.Replay(func(r Record) error {
		out = append(out, r)
		return nil
	}); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return out
}

func TestOptionsValidate(t *testing.T) {
	cases := []struct {
		o  Options
		ok bool
	}{
		{Options{Backend: BackendMemory, Dir: "/tmp/x"}, false},
		{Options{Backend: BackendDisk, Dir: "/tmp/x"}, true},
		{Options{Backend: BackendDisk}, false},
		{Options{Backend: "floppy", Dir: "/tmp/x"}, false},
		{Options{}, false},
		{Options{Backend: BackendDisk, Dir: "/tmp/x", Sync: "sometimes"}, false},
		{Options{Backend: BackendDisk, Dir: "/tmp/x", SegmentBytes: -1}, false},
		{Options{Backend: BackendDisk, Dir: "/tmp/x", Sync: SyncInterval}, true},
	}
	for i, c := range cases {
		err := c.o.Validate()
		if (err == nil) != c.ok {
			t.Errorf("case %d (%+v): Validate() = %v, want ok=%v", i, c.o, err, c.ok)
		}
	}
}

func TestDiskRoundTripAcrossReopen(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "node") // missing: a fresh node
	s := mustOpen(t, diskOpts(dir), nil)
	if got := collect(t, s); len(got) != 0 {
		t.Fatalf("fresh store replayed %d records", len(got))
	}
	const n = 60 // enough to force several rotations at 512-byte segments
	for g := uint64(1); g <= n; g++ {
		if err := s.AppendBatch([]Record{rec(g)}); err != nil {
			t.Fatalf("Append %d: %v", g, err)
		}
	}
	st := s.Status()
	if st.Rotations == 0 {
		t.Fatalf("expected rotations, status %+v", st)
	}
	if st.Checkpoints == 0 {
		t.Fatalf("expected seal-driven checkpoints, status %+v", st)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s2 := mustOpen(t, diskOpts(dir), nil)
	defer s2.Close() //nolint:errcheck
	got := collect(t, s2)
	if len(got) != n {
		t.Fatalf("recovered %d records, want %d", len(got), n)
	}
	for i, r := range got {
		if r.GLSN != uint64(i+1) {
			t.Fatalf("record %d has glsn %d, want %d", i, r.GLSN, i+1)
		}
		if want := fmt.Sprintf("payload-%06d", r.GLSN); string(r.Data) != want {
			t.Fatalf("record %d data %q, want %q", i, r.Data, want)
		}
	}
	st2 := s2.Status()
	if st2.RecoveryHashedSegments == 0 {
		t.Fatalf("expected checkpointed segments verified by hash, status %+v", st2)
	}
	if st2.RecoveryScannedRecords >= int64(n) {
		t.Fatalf("recovery scanned %d records; checkpoint should bound it below %d", st2.RecoveryScannedRecords, n)
	}
}

func TestDiskBatchAtomicity(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, diskOpts(dir), nil)
	batch := []Record{rec(1), rec(2), rec(3)}
	if err := s.AppendBatch(batch); err != nil {
		t.Fatalf("AppendBatch: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	s2 := mustOpen(t, diskOpts(dir), nil)
	defer s2.Close() //nolint:errcheck
	if got := collect(t, s2); len(got) != 3 {
		t.Fatalf("recovered %d, want 3", len(got))
	}
}

// TestDiskTornTailTruncated crashes mid-write and verifies the torn
// frame is discarded while every earlier record survives.
func TestDiskTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	inj := faultfs.NewInjector(nil)
	s := mustOpen(t, diskOpts(dir), inj)
	for g := uint64(1); g <= 10; g++ {
		if err := s.AppendBatch([]Record{rec(g)}); err != nil {
			t.Fatalf("Append %d: %v", g, err)
		}
	}
	inj.ArmCrash(1, 0.4) // next write persists 40% then power-off
	err := s.AppendBatch([]Record{rec(11)})
	if err == nil {
		t.Fatal("append across a crash point succeeded")
	}
	s.Close() //nolint:errcheck // post-crash close errors are expected

	s2 := mustOpen(t, diskOpts(dir), nil) // "reboot" on the real fs
	defer s2.Close()                      //nolint:errcheck
	got := collect(t, s2)
	if len(got) != 10 {
		t.Fatalf("recovered %d records, want the 10 acknowledged ones", len(got))
	}
	if q := s2.Status().Quarantined; len(q) != 0 {
		t.Fatalf("torn tail must truncate, not quarantine: %+v", q)
	}
	// The store keeps working after truncation.
	if err := s2.AppendBatch([]Record{rec(11)}); err != nil {
		t.Fatalf("append after torn-tail recovery: %v", err)
	}
}

// TestDiskFailedFsyncPoisons verifies a failed fsync refuses all later
// appends instead of silently acknowledging non-durable data.
func TestDiskFailedFsyncPoisons(t *testing.T) {
	dir := t.TempDir()
	inj := faultfs.NewInjector(nil)
	s := mustOpen(t, diskOpts(dir), inj)
	if err := s.AppendBatch([]Record{rec(1)}); err != nil {
		t.Fatalf("Append: %v", err)
	}
	inj.ArmFsyncFailure(1)
	if err := s.AppendBatch([]Record{rec(2)}); err == nil {
		t.Fatal("append with failed fsync succeeded")
	}
	if err := s.AppendBatch([]Record{rec(3)}); !errors.Is(err, ErrFailed) {
		t.Fatalf("append after failure = %v, want ErrFailed", err)
	}
	if st := s.Status(); st.Failed == "" {
		t.Fatalf("Status.Failed empty after poison: %+v", st)
	}
	s.Close() //nolint:errcheck

	// Reopen recovers whatever was durable; the store is usable again.
	s2 := mustOpen(t, diskOpts(dir), nil)
	defer s2.Close() //nolint:errcheck
	if err := s2.AppendBatch([]Record{rec(2)}); err != nil {
		t.Fatalf("append after reopen: %v", err)
	}
}

// TestDiskBitFlipQuarantines corrupts a sealed segment at rest and
// verifies recovery quarantines it, names its glsn extent, and serves
// the rest.
func TestDiskBitFlipQuarantines(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, diskOpts(dir), nil)
	const n = 60
	for g := uint64(1); g <= n; g++ {
		if err := s.AppendBatch([]Record{rec(g)}); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	sealed := 0
	for _, seg := range s.Status().Segments {
		if seg.Sealed {
			sealed++
		}
	}
	if sealed < 2 {
		t.Fatalf("need ≥2 sealed segments, got %d", sealed)
	}
	target := s.Status().Segments[0]
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Flip a bit inside the first sealed segment's record area.
	path := filepath.Join(dir, fmt.Sprintf("seg-%016x.log", target.Seq))
	if err := faultfs.FlipBit(path, 40, 3); err != nil {
		t.Fatalf("FlipBit: %v", err)
	}

	s2 := mustOpen(t, diskOpts(dir), nil)
	defer s2.Close() //nolint:errcheck
	st := s2.Status()
	if len(st.Quarantined) != 1 {
		t.Fatalf("quarantined %d segments, want 1: %+v", len(st.Quarantined), st.Quarantined)
	}
	q := st.Quarantined[0]
	if q.Seq != target.Seq {
		t.Fatalf("quarantined seq %d, want %d", q.Seq, target.Seq)
	}
	if q.GLSNLo != target.GLSNLo || q.GLSNHi != target.GLSNHi {
		t.Fatalf("quarantine extent %d-%d, want %d-%d (from checkpoint)", q.GLSNLo, q.GLSNHi, target.GLSNLo, target.GLSNHi)
	}
	if !strings.Contains(q.Extent(), "glsn ") {
		t.Fatalf("Extent() = %q", q.Extent())
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("damaged segment still live on disk: %v", err)
	}
	// Replay serves everything outside the quarantined extent.
	got := collect(t, s2)
	for _, r := range got {
		if r.GLSN >= q.GLSNLo && r.GLSN <= q.GLSNHi {
			t.Fatalf("replayed glsn %d from inside the quarantined extent", r.GLSN)
		}
	}
	if len(got) == 0 {
		t.Fatal("replay returned nothing; healthy segments must survive")
	}
}

// TestDiskQuarantineExtentSurvivesRestarts reopens a degraded store a
// second time and asserts the loss record (reason + glsn extent) still
// names the range: the checkpoint carries it, because the damaged
// file's own CRC-valid prefix usually cannot.
func TestDiskQuarantineExtentSurvivesRestarts(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, diskOpts(dir), nil)
	for g := uint64(1); g <= 60; g++ {
		if err := s.AppendBatch([]Record{rec(g)}); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	target := s.Status().Segments[0]
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("seg-%016x.log", target.Seq))
	if err := faultfs.FlipBit(path, 40, 3); err != nil {
		t.Fatalf("FlipBit: %v", err)
	}

	// First reopen quarantines; the extent comes from the checkpoint pin.
	s2 := mustOpen(t, diskOpts(dir), nil)
	firstQuar := s2.Status().Quarantined
	if err := s2.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if len(firstQuar) != 1 || firstQuar[0].GLSNLo == 0 {
		t.Fatalf("first reopen quarantine = %+v, want one entry with a known extent", firstQuar)
	}

	// Second reopen: the segment is already .bad; only the checkpoint's
	// durable loss record can still name the extent and reason.
	s3 := mustOpen(t, diskOpts(dir), nil)
	defer s3.Close() //nolint:errcheck
	quar := s3.Status().Quarantined
	if len(quar) != 1 {
		t.Fatalf("second reopen quarantined %d segments, want 1: %+v", len(quar), quar)
	}
	q := quar[0]
	if q.GLSNLo != target.GLSNLo || q.GLSNHi != target.GLSNHi {
		t.Fatalf("second-restart extent %d-%d, want %d-%d", q.GLSNLo, q.GLSNHi, target.GLSNLo, target.GLSNHi)
	}
	if q.Reason != firstQuar[0].Reason {
		t.Fatalf("second-restart reason %q, want the original %q", q.Reason, firstQuar[0].Reason)
	}
	if !strings.Contains(q.Extent(), "glsn ") {
		t.Fatalf("Extent() = %q after second restart", q.Extent())
	}
}

// TestDiskCompactBoundsReplay compacts and verifies the next reopen
// replays only the snapshot plus the post-compaction delta.
func TestDiskCompactBoundsReplay(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, diskOpts(dir), nil)
	for g := uint64(1); g <= 50; g++ {
		if err := s.AppendBatch([]Record{rec(g)}); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	// Snapshot keeps only the live suffix, as the node's compaction does.
	var snap []Record
	for g := uint64(41); g <= 50; g++ {
		snap = append(snap, rec(g))
	}
	if err := s.Compact(snap); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	for g := uint64(51); g <= 55; g++ {
		if err := s.AppendBatch([]Record{rec(g)}); err != nil {
			t.Fatalf("Append after compact: %v", err)
		}
	}
	if got := collect(t, s); len(got) != 15 {
		t.Fatalf("live replay %d records, want 15", len(got))
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s2 := mustOpen(t, diskOpts(dir), nil)
	defer s2.Close() //nolint:errcheck
	got := collect(t, s2)
	if len(got) != 15 {
		t.Fatalf("recovered %d records, want 15 (10 snapshot + 5 delta)", len(got))
	}
	if got[0].GLSN != 41 || got[14].GLSN != 55 {
		t.Fatalf("recovered range %d..%d, want 41..55", got[0].GLSN, got[14].GLSN)
	}
	st := s2.Status()
	// The snapshot segment is checkpoint-verified by hash; only the
	// post-compaction delta is record-scanned.
	if st.RecoveryScannedRecords > 10 {
		t.Fatalf("recovery scanned %d records, want ≤ the post-compaction delta", st.RecoveryScannedRecords)
	}
	if st.Checkpoint == nil || st.Checkpoint.BaseSeq == 0 {
		t.Fatalf("no checkpoint after compact: %+v", st)
	}
}

// TestDiskCorruptCheckpointFallsBack damages the checkpoint and checks
// recovery distrusts it, record-verifies everything, and still serves
// all records.
func TestDiskCorruptCheckpointFallsBack(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, diskOpts(dir), nil)
	const n = 40
	for g := uint64(1); g <= n; g++ {
		if err := s.AppendBatch([]Record{rec(g)}); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if s.Status().Checkpoints == 0 {
		t.Fatal("test needs a checkpoint on disk")
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := faultfs.FlipBit(filepath.Join(dir, "checkpoint.json"), 30, 1); err != nil {
		t.Fatalf("FlipBit: %v", err)
	}

	s2, err := Open(diskOpts(dir), testParams, nil)
	if err != nil {
		t.Fatalf("Open with corrupt checkpoint: %v", err)
	}
	defer s2.Close() //nolint:errcheck
	if got := collect(t, s2); len(got) != n {
		t.Fatalf("recovered %d records, want %d", len(got), n)
	}
	if st := s2.Status(); st.RecoveryHashedSegments != 0 {
		t.Fatalf("hash-shortcut used despite corrupt checkpoint: %+v", st)
	}
}

// TestDiskCompactionCrashWindows exercises the compaction protocol's
// crash points: before the checkpoint swap the old history wins; after
// it the snapshot wins.
func TestDiskCompactionCrashWindows(t *testing.T) {
	t.Run("before-checkpoint", func(t *testing.T) {
		dir := t.TempDir()
		s := mustOpen(t, diskOpts(dir), nil)
		for g := uint64(1); g <= 20; g++ {
			if err := s.AppendBatch([]Record{rec(g)}); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		// Simulate a crash after the snapshot file was written but before
		// the checkpoint swap: plant an orphan .snap.
		orphan := filepath.Join(dir, "seg-00000000000000ff.snap")
		if err := os.WriteFile(orphan, []byte("DLASEG1\nS"), 0o600); err != nil {
			t.Fatal(err)
		}
		s2 := mustOpen(t, diskOpts(dir), nil)
		defer s2.Close() //nolint:errcheck
		if got := collect(t, s2); len(got) != 20 {
			t.Fatalf("recovered %d, want the full pre-compaction 20", len(got))
		}
		if _, err := os.Stat(orphan); !os.IsNotExist(err) {
			t.Fatalf("orphan snapshot not cleaned: %v", err)
		}
	})
	t.Run("after-checkpoint-before-rename", func(t *testing.T) {
		dir := t.TempDir()
		s := mustOpen(t, diskOpts(dir), nil)
		for g := uint64(1); g <= 20; g++ {
			if err := s.AppendBatch([]Record{rec(g)}); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Compact([]Record{rec(19), rec(20)}); err != nil {
			t.Fatal(err)
		}
		base := s.Status().Checkpoint.BaseSeq
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		// Undo the rename: the checkpoint exists but its base segment is
		// back under the snapshot name, as a crash between the swap and
		// the rename would leave it.
		live := filepath.Join(dir, fmt.Sprintf("seg-%016x.log", base))
		snap := filepath.Join(dir, fmt.Sprintf("seg-%016x.snap", base))
		if err := os.Rename(live, snap); err != nil {
			t.Fatal(err)
		}
		s2 := mustOpen(t, diskOpts(dir), nil)
		defer s2.Close() //nolint:errcheck
		got := collect(t, s2)
		if len(got) != 2 || got[0].GLSN != 19 {
			t.Fatalf("roll-forward recovered %+v, want the 2-record snapshot", got)
		}
	})
}

// TestDiskSyncPolicies checks fsync counts reflect the policy.
func TestDiskSyncPolicies(t *testing.T) {
	always := diskOpts(t.TempDir())
	s := mustOpen(t, always, nil)
	for g := uint64(1); g <= 5; g++ {
		if err := s.AppendBatch([]Record{rec(g)}); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Status(); st.Fsyncs < 5 {
		t.Fatalf("sync=always issued %d fsyncs for 5 appends", st.Fsyncs)
	}
	s.Close() //nolint:errcheck

	never := diskOpts(t.TempDir())
	never.Sync = SyncNever
	never.SegmentBytes = 1 << 20 // no rotation
	s2 := mustOpen(t, never, nil)
	for g := uint64(1); g <= 5; g++ {
		if err := s2.AppendBatch([]Record{rec(g)}); err != nil {
			t.Fatal(err)
		}
	}
	if st := s2.Status(); st.Fsyncs != 0 {
		t.Fatalf("sync=never issued %d fsyncs before close", st.Fsyncs)
	}
	if err := s2.Sync(); err != nil {
		t.Fatal(err)
	}
	if st := s2.Status(); st.Fsyncs != 1 {
		t.Fatalf("explicit Sync issued %d fsyncs, want 1", st.Fsyncs)
	}
	s2.Close() //nolint:errcheck
}

// TestInjectorShortWrite checks the short-write fault keeps the process
// alive but errors the write.
func TestInjectorShortWrite(t *testing.T) {
	dir := t.TempDir()
	inj := faultfs.NewInjector(nil)
	s := mustOpen(t, diskOpts(dir), inj)
	if err := s.AppendBatch([]Record{rec(1)}); err != nil {
		t.Fatal(err)
	}
	inj.ArmShortWrite(1)
	if err := s.AppendBatch([]Record{rec(2)}); !errors.Is(err, faultfs.ErrInjected) && !errors.Is(err, ErrFailed) {
		t.Fatalf("short write surfaced as %v", err)
	}
	if inj.Crashed() {
		t.Fatal("short write must not crash the injector")
	}
	if inj.LastFault() != "short-write" {
		t.Fatalf("LastFault = %q", inj.LastFault())
	}
	// The store is poisoned (it cannot know how much hit the disk)...
	if err := s.AppendBatch([]Record{rec(3)}); !errors.Is(err, ErrFailed) {
		t.Fatalf("append after short write = %v, want ErrFailed", err)
	}
	s.Close() //nolint:errcheck
	// ...and a reopen truncates the torn half-frame.
	s2 := mustOpen(t, diskOpts(dir), nil)
	defer s2.Close() //nolint:errcheck
	if got := collect(t, s2); len(got) != 1 || got[0].GLSN != 1 {
		t.Fatalf("recovered %+v, want just glsn 1", got)
	}
}

// TestOpenRefusesLegacyJournal opens a data directory that holds only
// the single-file journal of the store's predecessor. Opening it as a
// fresh store would boot an empty node and silently drop every record
// that journal acknowledged, so Open must fail and name the file.
func TestOpenRefusesLegacyJournal(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "node.wal"), []byte{0xDA, 1, 0}, 0o600); err != nil {
		t.Fatal(err)
	}
	s, err := Open(diskOpts(dir), testParams, nil)
	if err == nil {
		s.Close() //nolint:errcheck
		t.Fatal("Open accepted a directory holding node.wal")
	}
	if !strings.Contains(err.Error(), "node.wal") {
		t.Fatalf("Open error %q does not name node.wal", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("refused Open left %d files behind, want only node.wal", len(entries))
	}
}

// tornFixture journals four records into one segment and returns the
// segment's path, its bytes, and the offset just past the header and
// each frame.
func tornFixture(t *testing.T, dir string) (string, []byte, []int) {
	t.Helper()
	o := diskOpts(dir)
	o.SegmentBytes = 1 << 20
	s := mustOpen(t, o, nil)
	ends := []int{headerSize}
	for g := uint64(1); g <= 4; g++ {
		if err := s.AppendBatch([]Record{rec(g)}); err != nil {
			t.Fatal(err)
		}
		ends = append(ends, ends[len(ends)-1]+len(appendFrame(nil, rec(g))))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, fmt.Sprintf("seg-%016x.log", 1))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != ends[len(ends)-1] {
		t.Fatalf("segment is %d bytes, frames end at %v", len(data), ends)
	}
	return path, data, ends
}

// reopenCut replaces the segment with data, reopens the store, and
// returns what it replays; the reopened store must take an append and
// must not quarantine anything.
func reopenCut(t *testing.T, dir, path string, data []byte) []Record {
	t.Helper()
	if err := os.WriteFile(path, data, 0o600); err != nil {
		t.Fatal(err)
	}
	s := mustOpen(t, diskOpts(dir), nil)
	defer s.Close() //nolint:errcheck
	got := collect(t, s)
	if q := s.Status().Quarantined; len(q) != 0 {
		t.Fatalf("%d-byte cut quarantined %+v; a torn tail must truncate", len(data), q)
	}
	if err := s.AppendBatch([]Record{rec(99)}); err != nil {
		t.Fatalf("append after %d-byte cut: %v", len(data), err)
	}
	return got
}

// TestDiskTornTailAtEveryCut truncates the segment at every byte offset
// inside the final frame — a crash mid-append — and verifies recovery
// keeps every intact record instead of failing or quarantining.
func TestDiskTornTailAtEveryCut(t *testing.T) {
	dir := t.TempDir()
	path, data, ends := tornFixture(t, dir)
	for cut := ends[len(ends)-2] + 1; cut < len(data); cut++ {
		if got := reopenCut(t, dir, path, data[:cut]); len(got) != len(ends)-2 {
			t.Fatalf("cut at byte %d of %d: replayed %d records, want %d", cut, len(data), len(got), len(ends)-2)
		}
	}
}

// TestDiskTornAtFrameBoundary cuts the segment exactly at each frame
// boundary — a crash after one append completed and before the next
// began — and at zero bytes, the crash window inside segment creation.
// A zero-filled tail past the header (the file grew, the appended bytes
// never landed) is the same crash window. Recovery yields exactly the
// frames before the cut.
func TestDiskTornAtFrameBoundary(t *testing.T) {
	dir := t.TempDir()
	path, data, ends := tornFixture(t, dir)
	if got := reopenCut(t, dir, path, nil); len(got) != 0 {
		t.Fatalf("empty segment replayed %d records", len(got))
	}
	for i, end := range ends {
		for _, tail := range [][]byte{nil, make([]byte, 64)} {
			if got := reopenCut(t, dir, path, append(data[:end:end], tail...)); len(got) != i {
				t.Fatalf("cut at %d (+%d zero bytes): replayed %d records, want %d", end, len(tail), len(got), i)
			}
		}
	}
}
