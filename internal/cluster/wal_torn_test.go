package cluster

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"

	"confaudit/internal/logmodel"
	"confaudit/internal/ticket"
	"confaudit/internal/transport"
)

// writeTornTestWAL journals a few entries directly and returns the
// file's bytes plus the number of entries.
func writeTornTestWAL(t *testing.T, dir string) ([]byte, int) {
	t.Helper()
	w, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	entries := []walEntry{
		{Kind: "grant", TicketID: "T1", GLSN: 10},
		{Kind: "grant", TicketID: "T1", GLSN: 11},
		{Kind: "frag", Fragment: &logmodel.Fragment{
			GLSN: 10, Node: "P1",
			Values: map[logmodel.Attr]logmodel.Value{"id": logmodel.String("U1")},
		}},
		{Kind: "delete", GLSN: 11},
	}
	for _, e := range entries {
		if err := w.append(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, walFile))
	if err != nil {
		t.Fatal(err)
	}
	return data, len(entries)
}

// walRecordEnds walks the binary record framing and returns the byte
// offset just past each record.
func walRecordEnds(t *testing.T, data []byte) []int {
	t.Helper()
	var ends []int
	off := 0
	for off < len(data) {
		if data[off] != walBinMagic {
			t.Fatalf("record at offset %d does not start with the binary magic", off)
		}
		n, sz := binary.Uvarint(data[off+2:])
		if sz <= 0 {
			t.Fatalf("bad length varint at offset %d", off)
		}
		off += 2 + sz + int(n) + 4
		if off > len(data) {
			t.Fatalf("record at offset %d overruns the file", ends[len(ends)-1])
		}
		ends = append(ends, off)
	}
	return ends
}

// TestReplayWALToleratesTornFinalRecord truncates the journal at every
// byte offset inside the final entry — simulating a crash mid-append —
// and verifies replay recovers every intact entry instead of failing.
func TestReplayWALToleratesTornFinalRecord(t *testing.T) {
	dir := t.TempDir()
	data, total := writeTornTestWAL(t, dir)
	ends := walRecordEnds(t, data)
	lastStart := ends[len(ends)-2]

	for cut := lastStart; cut <= len(data); cut++ {
		if err := os.WriteFile(filepath.Join(dir, walFile), data[:cut], 0o600); err != nil {
			t.Fatal(err)
		}
		var got []walEntry
		err := ReplayWAL(dir, func(e walEntry) error {
			got = append(got, e)
			return nil
		})
		if err != nil {
			t.Fatalf("cut at byte %d of %d: replay failed: %v", cut, len(data), err)
		}
		// A cut anywhere inside the final record yields the intact
		// prefix; only the undamaged file yields every entry.
		want := total - 1
		if cut == len(data) {
			want = total
		}
		if len(got) != want {
			t.Fatalf("cut at byte %d: replayed %d entries, want %d", cut, len(got), want)
		}
	}
}

// TestReplayWALTornAtRecordBoundary cuts the journal exactly at each
// record boundary — a crash after a complete append but before the next
// one began. That is not damage at all: replay must yield exactly the
// entries before the cut, with no error and no spillover.
func TestReplayWALTornAtRecordBoundary(t *testing.T) {
	dir := t.TempDir()
	data, total := writeTornTestWAL(t, dir)
	ends := walRecordEnds(t, data)
	for i, end := range ends {
		// A zero-filled tail (the file grew, the appended bytes never
		// landed) is the same crash window.
		for _, tail := range [][]byte{nil, make([]byte, 64)} {
			if err := os.WriteFile(filepath.Join(dir, walFile), append(data[:end:end], tail...), 0o600); err != nil {
				t.Fatal(err)
			}
			var got []walEntry
			if err := ReplayWAL(dir, func(e walEntry) error {
				got = append(got, e)
				return nil
			}); err != nil {
				t.Fatalf("cut at boundary %d (+%d zero bytes): %v", i+1, len(tail), err)
			}
			if len(got) != i+1 {
				t.Fatalf("cut at boundary %d (+%d zero bytes): replayed %d entries", i+1, len(tail), len(got))
			}
		}
	}
	if len(ends) != total {
		t.Fatalf("walked %d boundaries, want %d", len(ends), total)
	}
}

// TestReplayWALEmptyFile covers the crash window right after WAL
// creation: a zero-byte journal is a fresh node, not corruption.
func TestReplayWALEmptyFile(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, walFile), nil, 0o600); err != nil {
		t.Fatal(err)
	}
	calls := 0
	if err := ReplayWAL(dir, func(walEntry) error { calls++; return nil }); err != nil {
		t.Fatal(err)
	}
	if calls != 0 {
		t.Fatalf("empty journal replayed %d entries", calls)
	}
}

// TestRewriteOfEmptyWALInstallsSnapshot rewrites a journal that never
// saw an append. The snapshot must fully replace the (empty) log and be
// the only thing replay sees — and the live handle must still accept
// appends afterwards.
func TestRewriteOfEmptyWALInstallsSnapshot(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	snap := []walEntry{
		{Kind: "grant", TicketID: "T1", GLSN: 5},
		{Kind: "grant", TicketID: "T1", GLSN: 6},
	}
	if err := w.rewrite(snap); err != nil {
		t.Fatal(err)
	}
	if err := w.append(walEntry{Kind: "delete", GLSN: 6}); err != nil {
		t.Fatalf("append after rewrite: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	var got []walEntry
	if err := ReplayWAL(dir, func(e walEntry) error {
		got = append(got, e)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0].GLSN != 5 || got[2].Kind != "delete" {
		t.Fatalf("replayed %+v", got)
	}
}

// TestReplayWALIgnoresUncommittedSnapshot simulates a crash between
// writing the snapshot tmp file and the rename that commits it: the tmp
// holds newer state than the live journal's tail. The tmp was never
// committed, so replay must use the journal alone, and the next rewrite
// must clobber the stale tmp rather than trip over it.
func TestReplayWALIgnoresUncommittedSnapshot(t *testing.T) {
	dir := t.TempDir()
	data, total := writeTornTestWAL(t, dir)
	_ = data
	if err := os.WriteFile(filepath.Join(dir, walFile+".tmp"),
		[]byte(`{"kind":"grant","ticket_id":"TNEW","glsn":99}`+"\n"), 0o600); err != nil {
		t.Fatal(err)
	}
	var got []walEntry
	if err := ReplayWAL(dir, func(e walEntry) error {
		got = append(got, e)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != total {
		t.Fatalf("replayed %d entries, want %d (uncommitted snapshot leaked in?)", len(got), total)
	}
	for _, e := range got {
		if e.TicketID == "TNEW" {
			t.Fatal("uncommitted snapshot entry replayed")
		}
	}
	// The next committed rewrite supersedes both the journal and the
	// stale tmp.
	w, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.rewrite([]walEntry{{Kind: "grant", TicketID: "T2", GLSN: 42}}); err != nil {
		t.Fatalf("rewrite over stale tmp: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got = nil
	if err := ReplayWAL(dir, func(e walEntry) error {
		got = append(got, e)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].TicketID != "T2" {
		t.Fatalf("replayed %+v after committed rewrite", got)
	}
}

// TestRestoreToleratesDuplicateReplay boots a node from a journal where
// a compaction snapshot and a pre-compaction delta both survived — the
// same ticket registration and grants appear twice. Registration and
// grants are idempotent facts; recovery must converge, not fail. A
// grant whose ticket registration is missing entirely (lost with a
// quarantined extent) is skipped, but its glsn still advances the
// sequencer so it is never reissued.
func TestRestoreToleratesDuplicateReplay(t *testing.T) {
	boot := sharedBootstrap(t)
	tk, err := boot.Issuer.Issue("TDUP", "dup-u", ticket.OpWrite, ticket.OpRead)
	if err != nil {
		t.Fatal(err)
	}
	wt := ToWire(tk)
	dir := filepath.Join(t.TempDir(), "P0")
	w, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []walEntry{
		{Kind: "ticket", Ticket: &wt},
		{Kind: "grant", TicketID: "TDUP", GLSN: 1},
		{Kind: "ticket", Ticket: &wt},               // duplicate registration
		{Kind: "grant", TicketID: "TDUP", GLSN: 1},  // duplicate grant
		{Kind: "grant", TicketID: "TGONE", GLSN: 7}, // registration lost upstream
	} {
		if err := w.append(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	net := transport.NewMemNetwork()
	defer net.Close() //nolint:errcheck
	ep, err := net.Endpoint("P0")
	if err != nil {
		t.Fatal(err)
	}
	mb := transport.NewMailbox(ep)
	defer mb.Close() //nolint:errcheck
	cfg := boot.NodeConfig("P0")
	cfg.DataDir = dir
	node, err := New(cfg, mb)
	if err != nil {
		t.Fatalf("restore with duplicates failed: %v", err)
	}
	defer node.CloseStorage() //nolint:errcheck
	if node.nextGLSN <= 7 {
		t.Fatalf("sequencer at %v; the skipped grant's glsn must still advance it past 7", node.nextGLSN)
	}
}

// TestReplayWALStillRejectsMidFileCorruption keeps the strict failure
// mode for damage that is not a torn tail: flipping payload bytes in a
// record with records after it is a checksum mismatch, not a crash.
func TestReplayWALStillRejectsMidFileCorruption(t *testing.T) {
	dir := t.TempDir()
	data, _ := writeTornTestWAL(t, dir)
	ends := walRecordEnds(t, data)
	corrupted := append([]byte(nil), data...)
	corrupted[ends[0]-5] ^= 0xFF // last payload byte of the first record
	if err := os.WriteFile(filepath.Join(dir, walFile), corrupted, 0o600); err != nil {
		t.Fatal(err)
	}
	if err := ReplayWAL(dir, func(walEntry) error { return nil }); err == nil {
		t.Fatal("replay accepted mid-file corruption")
	}
}
