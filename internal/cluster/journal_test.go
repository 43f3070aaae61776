package cluster

import (
	"context"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"math/big"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"confaudit/internal/logmodel"
	"confaudit/internal/storage"
	"confaudit/internal/ticket"
	"confaudit/internal/transport"
	"confaudit/internal/wire"
)

// openStore opens the segment store in dir with default options.
func openStore(t *testing.T, dir string) storage.Store {
	t.Helper()
	return openStoreOpts(t, dir, storage.Options{})
}

// openStoreOpts opens the segment store in dir with o's tuning.
func openStoreOpts(t *testing.T, dir string, o storage.Options) storage.Store {
	t.Helper()
	o.Backend, o.Dir = storage.BackendDisk, dir
	st, err := storage.Open(o, sharedBootstrap(t).AccParams, nil)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// journalWrite journals entries the way a node mutation does: encode,
// stage, commit.
func journalWrite(j *storeJournal, entries ...walEntry) error {
	recs, err := j.encode(entries)
	if err != nil {
		return err
	}
	j.stage(recs)
	return j.commit()
}

// durableCluster starts a cluster whose nodes journal to per-node
// segment stores under root.
func durableCluster(t *testing.T, root string) (*testCluster, context.CancelFunc) {
	t.Helper()
	return durableClusterOpts(t, root, storage.Options{})
}

// durableClusterOpts is durableCluster with o's store tuning.
func durableClusterOpts(t *testing.T, root string, o storage.Options) (*testCluster, context.CancelFunc) {
	t.Helper()
	boot := sharedBootstrap(t)
	net := transport.NewMemNetwork()
	ctx, cancel := context.WithCancel(context.Background())
	tc := &testCluster{boot: boot, net: net, nodes: make(map[string]*Node), cancel: cancel}
	for _, id := range boot.Roster {
		ep, err := net.Endpoint(id)
		if err != nil {
			t.Fatal(err)
		}
		mb := transport.NewMailbox(ep)
		cfg := boot.NodeConfig(id)
		cfg.Storage = openStoreOpts(t, filepath.Join(root, id), o)
		node, err := New(cfg, mb)
		if err != nil {
			t.Fatal(err)
		}
		node.Start(ctx)
		tc.nodes[id] = node
	}
	return tc, func() {
		cancel()
		net.Close() //nolint:errcheck
		for _, n := range tc.nodes {
			n.Wait()
			n.Close() //nolint:errcheck
		}
	}
}

// TestWALSurvivesRestart logs records, restarts the whole cluster from
// disk, and verifies reads, grants, and sequencing all survive.
func TestWALSurvivesRestart(t *testing.T) {
	root := t.TempDir()
	ctx := testCtx(t)

	// First incarnation: register, log, delete one record.
	tc, stop := durableCluster(t, root)
	c := tc.client(t, "wal-u", "TWAL", ticket.OpWrite, ticket.OpRead, ticket.OpDelete)
	if err := c.RegisterTicket(ctx); err != nil {
		t.Fatal(err)
	}
	g1, err := c.Log(ctx, map[logmodel.Attr]logmodel.Value{"id": logmodel.String("U1"), "C1": logmodel.Int(7)})
	if err != nil {
		t.Fatal(err)
	}
	g2, err := c.Log(ctx, map[logmodel.Attr]logmodel.Value{"id": logmodel.String("U2"), "C1": logmodel.Int(8)})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Delete(ctx, g2); err != nil {
		t.Fatal(err)
	}
	stop()

	// Second incarnation from the same data dirs.
	tc2, stop2 := durableCluster(t, root)
	defer stop2()
	c2 := tc2.client(t, "wal-u2", "TWAL2", ticket.OpWrite, ticket.OpRead)
	if err := c2.RegisterTicket(ctx); err != nil {
		t.Fatal(err)
	}

	// The surviving record is readable by its original ticket: recreate
	// the original client (same ticket ID -> already registered from the
	// journal, so registration would be a duplicate; read directly).
	ep, err := tc2.net.Endpoint("wal-u")
	if err != nil {
		t.Fatal(err)
	}
	mb := transport.NewMailbox(ep)
	defer mb.Close() //nolint:errcheck
	tk, err := tc2.boot.Issuer.Issue("TWAL", "wal-u", ticket.OpWrite, ticket.OpRead, ticket.OpDelete)
	if err != nil {
		t.Fatal(err)
	}
	orig, err := OpenClient(mb, ClientConfig{Roster: tc2.boot.Roster, Partition: tc2.boot.Partition, Accumulator: tc2.boot.AccParams, Ticket: tk})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := orig.Read(ctx, g1)
	if err != nil {
		t.Fatalf("read after restart: %v", err)
	}
	if rec.Values["id"].S != "U1" || rec.Values["C1"].I != 7 {
		t.Fatalf("restored record %v", rec.Values)
	}
	// The deleted record stayed deleted.
	if _, err := orig.Read(ctx, g2); err == nil {
		t.Fatal("deleted record resurrected by restart")
	}
	// The sequencer resumes past the replayed grants: new glsns do not
	// collide with old ones.
	g3, err := c2.Log(ctx, map[logmodel.Attr]logmodel.Value{"id": logmodel.String("U3")})
	if err != nil {
		t.Fatal(err)
	}
	if g3 <= g2 {
		t.Fatalf("sequencer reissued %s after %s", g3, g2)
	}
}

// dirBytes sums the sizes of the files in dir.
func dirBytes(t *testing.T, dir string) int64 {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		total += info.Size()
	}
	return total
}

// TestCompactionShrinksAndPreserves verifies that compaction removes
// superseded entries while a restart from the compacted journal yields
// identical state.
func TestCompactionShrinksAndPreserves(t *testing.T) {
	root := t.TempDir()
	ctx := testCtx(t)
	tc, stop := durableCluster(t, root)
	c := tc.client(t, "cmp-u", "TCMP", ticket.OpWrite, ticket.OpRead, ticket.OpDelete)
	if err := c.RegisterTicket(ctx); err != nil {
		t.Fatal(err)
	}
	var keep logmodel.GLSN
	for i := 0; i < 10; i++ {
		g, err := c.Log(ctx, map[logmodel.Attr]logmodel.Value{"C1": logmodel.Int(int64(i))})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			keep = g
		} else if err := c.Delete(ctx, g); err != nil {
			t.Fatal(err)
		}
	}
	p0Dir := filepath.Join(root, "P0")
	before := dirBytes(t, p0Dir)
	for _, node := range tc.nodes {
		if err := node.CompactStorage(); err != nil {
			t.Fatal(err)
		}
	}
	if after := dirBytes(t, p0Dir); after >= before {
		t.Fatalf("compaction did not shrink the journal: %d -> %d bytes", before, after)
	}
	stop()

	// Restart from the compacted journal.
	tc2, stop2 := durableCluster(t, root)
	defer stop2()
	ep, err := tc2.net.Endpoint("cmp-u")
	if err != nil {
		t.Fatal(err)
	}
	mb := transport.NewMailbox(ep)
	defer mb.Close() //nolint:errcheck
	tk, err := tc2.boot.Issuer.Issue("TCMP", "cmp-u", ticket.OpWrite, ticket.OpRead, ticket.OpDelete)
	if err != nil {
		t.Fatal(err)
	}
	orig, err := OpenClient(mb, ClientConfig{Roster: tc2.boot.Roster, Partition: tc2.boot.Partition, Accumulator: tc2.boot.AccParams, Ticket: tk})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := orig.Read(ctx, keep)
	if err != nil {
		t.Fatalf("surviving record lost by compaction: %v", err)
	}
	if rec.Values["C1"].I != 0 {
		t.Fatalf("restored %v", rec.Values)
	}
}

// TestWALRejectsCorruptJournal refuses journals the node cannot trust.
// A data directory holding node.wal — the retired single-file journal,
// whatever its contents — is refused at open rather than booted as an
// empty node. A segment of garbage is quarantined: the node boots
// degraded and names the loss instead of serving it.
func TestWALRejectsCorruptJournal(t *testing.T) {
	boot := sharedBootstrap(t)
	for name, journal := range map[string]string{
		"garbage":   "{not json\n",
		"json line": `{"kind":"grant","ticket_id":"T1","glsn":10}` + "\n",
		"binary":    "\xda\x01\x00\x00\x00\x00\x00",
	} {
		dir := filepath.Join(t.TempDir(), "P0")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "node.wal"), []byte(journal), 0o600); err != nil {
			t.Fatal(err)
		}
		st, err := storage.Open(storage.Options{Backend: storage.BackendDisk, Dir: dir}, boot.AccParams, nil)
		if err == nil {
			st.Close() //nolint:errcheck
			t.Fatalf("%s: data directory holding node.wal opened", name)
		}
		if !strings.Contains(err.Error(), "node.wal") {
			t.Fatalf("%s: refusal %q does not name node.wal", name, err)
		}
	}

	dir := filepath.Join(t.TempDir(), "P0")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "seg-0000000000000001.log"), []byte("{not a segment\n"), 0o600); err != nil {
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
	cfg.Storage = openStore(t, dir)
	node, err := New(cfg, mb)
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close() //nolint:errcheck
	if q := node.QuarantinedExtents(); len(q) != 1 || !strings.HasPrefix(q[0], "P0: ") {
		t.Fatalf("corrupt segment quarantined as %v, want one extent named for P0", q)
	}
	if len(node.GLSNs()) != 0 {
		t.Fatal("node serves records from a corrupt segment")
	}
}

// TestNilWALIsNoop pins the memory-only node's journal: a nil
// *storeJournal accepts every write and close without effect.
func TestNilWALIsNoop(t *testing.T) {
	var j *storeJournal
	if err := journalWrite(j, walEntry{Kind: "frag"}); err != nil {
		t.Fatal(err)
	}
	if err := journalWrite(j, stagedFragEntries(ingestFanoutThreshold)...); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

// segmentFrameEnds walks a segment file's frames (a 9-byte header, then
// u32 length ‖ u32 crc ‖ payload each) and returns the byte offset just
// past each frame.
func segmentFrameEnds(t *testing.T, data []byte) []int {
	t.Helper()
	var ends []int
	for off := 9; off < len(data); {
		if off+8 > len(data) {
			t.Fatalf("frame header at offset %d overruns the file", off)
		}
		off += 8 + int(binary.LittleEndian.Uint32(data[off:]))
		if off > len(data) {
			t.Fatalf("frame ending at %d overruns the %d-byte file", off, len(data))
		}
		ends = append(ends, off)
	}
	return ends
}

// activeSegment returns the path of the highest-numbered live segment in
// a node's data directory.
func activeSegment(t *testing.T, dir string) string {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no live segment in %s: %v", dir, err)
	}
	slices.Sort(segs)
	return segs[len(segs)-1]
}

// journalEntries replays every entry a store holds.
func journalEntries(t *testing.T, dir string) []walEntry {
	t.Helper()
	st := openStore(t, dir)
	defer st.Close() //nolint:errcheck
	var got []walEntry
	if err := replayStore(st, func(e walEntry) error {
		got = append(got, kept(e))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return got
}

// kept copies out a replayed entry's item, which replay reuses for the
// next "frag" entry, so the entry can outlive its callback.
func kept(e walEntry) walEntry {
	if e.Item != nil {
		it := *e.Item
		e.Item = &it
	}
	return e
}

// TestRewriteOfEmptyWALInstallsSnapshot rewrites a journal that never
// saw an append. The snapshot must fully replace the (empty) log and be
// the only thing replay sees — and the journal must still accept
// appends afterwards.
func TestRewriteOfEmptyWALInstallsSnapshot(t *testing.T) {
	dir := t.TempDir()
	j := &storeJournal{s: openStore(t, dir)}
	snap := []walEntry{
		{Kind: "grant", TicketID: "T1", GLSN: 5},
		{Kind: "grant", TicketID: "T1", GLSN: 6},
	}
	if err := j.rewrite(snap); err != nil {
		t.Fatal(err)
	}
	if err := journalWrite(j, walEntry{Kind: "delete", GLSN: 6}); err != nil {
		t.Fatalf("append after rewrite: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	got := journalEntries(t, dir)
	if len(got) != 3 || got[0].GLSN != 5 || got[2].Kind != "delete" {
		t.Fatalf("replayed %+v", got)
	}
}

// writeTornTestJournal journals a few entries, one frame each, into a
// fresh segment store in dir and returns the segment's bytes plus the
// number of entries.
func writeTornTestJournal(t *testing.T, dir string) ([]byte, int) {
	t.Helper()
	j := &storeJournal{s: openStore(t, dir)}
	entries := []walEntry{
		{Kind: "grant", TicketID: "T1", GLSN: 10},
		{Kind: "grant", TicketID: "T1", GLSN: 11},
		{Kind: "frag", Item: &batchItem{Fragment: logmodel.Fragment{
			GLSN: 10, Node: "P1",
			Values: map[logmodel.Attr]logmodel.Value{"id": logmodel.String("U1")},
		}}},
		{Kind: "delete", GLSN: 11},
	}
	for _, e := range entries {
		if err := journalWrite(j, e); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(activeSegment(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	return data, len(entries)
}

// recoverSegment makes data the only segment of a fresh data directory,
// opens the store there, and returns what replay yields and what
// recovery quarantined.
func recoverSegment(t *testing.T, data []byte) ([]walEntry, []storage.QuarantineInfo) {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "seg-0000000000000001.log"), data, 0o600); err != nil {
		t.Fatal(err)
	}
	st := openStore(t, dir)
	defer st.Close() //nolint:errcheck
	var got []walEntry
	if err := replayStore(st, func(e walEntry) error {
		got = append(got, kept(e))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return got, st.Status().Quarantined
}

// TestReplayWALTornAtRecordBoundary cuts the journal exactly at each
// frame boundary — a crash after a complete append but before the next
// one began. That is not damage at all: replay must yield exactly the
// entries before the cut, with nothing quarantined and no spillover.
func TestReplayWALTornAtRecordBoundary(t *testing.T) {
	data, total := writeTornTestJournal(t, t.TempDir())
	ends := segmentFrameEnds(t, data)
	if len(ends) != total {
		t.Fatalf("walked %d boundaries, want %d", len(ends), total)
	}
	for i, end := range ends {
		// A zero-filled tail (the file grew, the appended bytes never
		// landed) is the same crash window.
		for _, tail := range [][]byte{nil, make([]byte, 64)} {
			got, quar := recoverSegment(t, append(data[:end:end], tail...))
			if len(got) != i+1 || len(quar) != 0 {
				t.Fatalf("cut at boundary %d (+%d zero bytes): replayed %d entries, quarantined %v", i+1, len(tail), len(got), quar)
			}
		}
	}
}

// TestReplayWALEmptyFile covers the crash window right after segment
// creation: a zero-byte segment is a fresh node, not corruption.
func TestReplayWALEmptyFile(t *testing.T) {
	got, quar := recoverSegment(t, nil)
	if len(got) != 0 || len(quar) != 0 {
		t.Fatalf("empty segment replayed %d entries, quarantined %v", len(got), quar)
	}
}

// replayOne writes rec to a fresh segment store, reopens it and
// returns what replaying it reports.
func replayOne(t *testing.T, rec storage.Record) error {
	t.Helper()
	dir := t.TempDir()
	st := openStore(t, dir)
	if err := st.AppendBatch([]storage.Record{rec}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st = openStore(t, dir)
	defer st.Close() //nolint:errcheck
	return replayStore(st, func(walEntry) error { return nil })
}

// TestReplayRefusesVersion1Journal pins the journal version: a record
// written in version 1, whose frag entries copied the store item's
// fields instead of carrying the item, is refused by its version number
// rather than misread.
func TestReplayRefusesVersion1Journal(t *testing.T) {
	// A version-1 grant entry: kind code, no ticket, ticket id "T1",
	// glsn 5, count 1, no fragment, four absent big integers.
	v1 := []byte{walBinMagic, 1, 2, 0, 2, 'T', '1', 5, 1, 0, 0, 0, 0, 0}
	err := replayOne(t, storage.Record{Kind: "grant", GLSN: 5, Data: v1})
	if err == nil || !strings.Contains(err.Error(), "version 1") {
		t.Fatalf("replaying a version-1 record: err = %v, want a refusal naming version 1", err)
	}
}

// TestReplayRefusesVersion2Journal pins the version-3 bump: a version-2
// record carried ticket and provenance signatures as RSA big integers,
// which a later codec would misread, so replay refuses it by its
// version number.
func TestReplayRefusesVersion2Journal(t *testing.T) {
	// A version-2 ticket entry: kind code 1, ticket present, id "T1",
	// holder "u0", one op (W), and a 2-byte positive big-integer
	// signature; then empty ticket id, glsn 0, count 0, no item.
	v2 := []byte{walBinMagic, 2, 1, 1, 2, 'T', '1', 2, 'u', '0', 2, 2, 1, 2, 0xBE, 0xEF, 0, 0, 0, 0}
	err := replayOne(t, storage.Record{Kind: "ticket", Data: v2})
	if err == nil || !strings.Contains(err.Error(), "version 2") {
		t.Fatalf("replaying a version-2 record: err = %v, want a refusal naming version 2", err)
	}
}

// TestReplayRefusesVersion3Journal pins the version-4 bump: a version-3
// frag entry's store item ended in the node's witness exponent, which
// items no longer carry, so replay refuses it by its version number.
func TestReplayRefusesVersion3Journal(t *testing.T) {
	// The version-3 record TestPinnedEncodings pinned for a signed frag
	// entry at glsn 300, witness exponent -7 last.
	v3, err := hex.DecodeString("da03030000000001ac020250310303616d7402005300026964010255310000011a5a0000000000000000000000000000000000000000000000000041abababababababababababababababababababababababababababababababababababababababababababababababababababababababababababababababab020107")
	if err != nil {
		t.Fatal(err)
	}
	err = replayOne(t, storage.Record{Kind: "frag", GLSN: 300, Data: v3})
	if err == nil || !strings.Contains(err.Error(), "version 3") {
		t.Fatalf("replaying a version-3 record: err = %v, want a refusal naming version 3", err)
	}
	// Read as the current version, its item is refused as malformed.
	v3[1] = walBinVersion
	if err := replayOne(t, storage.Record{Kind: "frag", GLSN: 300, Data: v3}); !errors.Is(err, wire.ErrMalformed) {
		t.Fatalf("replaying a witness-exponent item as version %d: err = %v, want wire.ErrMalformed", walBinVersion, err)
	}
}

// TestReplayRefusesItemOutsideAttrs journals a store item that carries
// an attribute outside the replaying node's A_i, as a fragment copied
// from another node's journal would, and restarts the node on it. The
// store door refuses such an item, and replay must too, with an error
// naming the item's glsn, rather than install the foreign fragment.
func TestReplayRefusesItemOutsideAttrs(t *testing.T) {
	boot := sharedBootstrap(t)
	owner := boot.Partition.Owner("C1")
	node := "P0"
	if owner == node {
		node = "P1"
	}
	dir := t.TempDir()
	j := &storeJournal{s: openStore(t, dir)}
	const g = logmodel.GLSN(77)
	copied := batchItem{
		Fragment:  logmodel.Fragment{GLSN: g, Node: owner, Values: map[logmodel.Attr]logmodel.Value{"C1": logmodel.Int(5)}},
		DigestExp: big.NewInt(6),
	}
	if err := journalWrite(j, walEntry{Kind: "frag", Item: &copied}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	net := transport.NewMemNetwork()
	defer net.Close() //nolint:errcheck
	ep, err := net.Endpoint(node)
	if err != nil {
		t.Fatal(err)
	}
	cfg := boot.NodeConfig(node)
	cfg.Storage = openStore(t, dir)
	n, err := New(cfg, transport.NewMailbox(ep))
	if err == nil {
		_, held := n.Fragment(g)
		n.Close() //nolint:errcheck
		t.Fatalf("replay on %s accepted a journaled item carrying %s's attribute C1 (installed: %v)", node, owner, held)
	}
	cfg.Storage.Close() //nolint:errcheck
	if msg := err.Error(); !strings.Contains(msg, g.String()) || !strings.Contains(msg, `attribute "C1" outside A_`+node) {
		t.Fatalf("replay refusal %q names neither glsn %s nor the attribute outside A_%s", msg, g, node)
	}
}

// TestReplayWALMissingDirIsFresh opens a data directory that does not
// exist yet: a first boot, with nothing to replay.
func TestReplayWALMissingDirIsFresh(t *testing.T) {
	if got := journalEntries(t, filepath.Join(t.TempDir(), "nope")); len(got) != 0 {
		t.Fatalf("missing journal replayed %d entries", len(got))
	}
}

// TestReplayWALIgnoresUncommittedSnapshot simulates a compaction that
// crashed between writing its snapshot segment and the checkpoint swap
// that commits it: the .snap file holds newer state than the live
// journal. It was never committed, so replay must use the journal alone,
// recovery must remove the stale file, and the next compaction must
// supersede the journal.
func TestReplayWALIgnoresUncommittedSnapshot(t *testing.T) {
	dir := t.TempDir()
	_, total := writeTornTestJournal(t, dir)

	// A snapshot segment of the newer state, made by a real compaction in
	// a scratch store: compacting a fresh store writes it as segment 2.
	scratch := t.TempDir()
	sj := &storeJournal{s: openStore(t, scratch)}
	if err := sj.rewrite([]walEntry{{Kind: "grant", TicketID: "TNEW", GLSN: 99}}); err != nil {
		t.Fatal(err)
	}
	if err := sj.Close(); err != nil {
		t.Fatal(err)
	}
	snap, err := os.ReadFile(filepath.Join(scratch, "seg-0000000000000002.log"))
	if err != nil {
		t.Fatal(err)
	}
	stale := filepath.Join(dir, "seg-0000000000000002.snap")
	if err := os.WriteFile(stale, snap, 0o600); err != nil {
		t.Fatal(err)
	}

	got := journalEntries(t, dir)
	if len(got) != total {
		t.Fatalf("replayed %d entries, want %d (uncommitted snapshot leaked in?)", len(got), total)
	}
	for _, e := range got {
		if e.TicketID == "TNEW" {
			t.Fatal("uncommitted snapshot entry replayed")
		}
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatalf("uncommitted snapshot survived recovery: %v", err)
	}

	// The next committed compaction supersedes the journal.
	j := &storeJournal{s: openStore(t, dir)}
	if err := j.rewrite([]walEntry{{Kind: "grant", TicketID: "T2", GLSN: 42}}); err != nil {
		t.Fatalf("rewrite after an uncommitted snapshot: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if got := journalEntries(t, dir); len(got) != 1 || got[0].TicketID != "T2" {
		t.Fatalf("replayed %+v after committed rewrite", got)
	}
}

// TestReplayWALStillRejectsMidFileCorruption keeps damage that is not a
// torn tail out of replay: flipping a payload byte in a frame with
// frames after it is a checksum mismatch, not a crash. The segment is
// quarantined and none of its entries is served.
func TestReplayWALStillRejectsMidFileCorruption(t *testing.T) {
	data, _ := writeTornTestJournal(t, t.TempDir())
	ends := segmentFrameEnds(t, data)
	corrupted := append([]byte(nil), data...)
	corrupted[ends[0]-1] ^= 0xFF // last payload byte of the first frame
	got, quar := recoverSegment(t, corrupted)
	if len(got) != 0 {
		t.Fatalf("replay accepted mid-file corruption: %d entries served", len(got))
	}
	if len(quar) != 1 {
		t.Fatalf("corrupt segment quarantined as %v, want one extent", quar)
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
	j := &storeJournal{s: openStore(t, dir)}
	for _, e := range []walEntry{
		{Kind: "ticket", Ticket: &wt},
		{Kind: "grant", TicketID: "TDUP", GLSN: 1},
		{Kind: "ticket", Ticket: &wt},               // duplicate registration
		{Kind: "grant", TicketID: "TDUP", GLSN: 1},  // duplicate grant
		{Kind: "grant", TicketID: "TGONE", GLSN: 7}, // registration lost upstream
	} {
		if err := journalWrite(j, e); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
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
	cfg.Storage = openStore(t, dir)
	node, err := New(cfg, mb)
	if err != nil {
		t.Fatalf("restore with duplicates failed: %v", err)
	}
	defer node.Close() //nolint:errcheck
	if node.nextGLSN <= 7 {
		t.Fatalf("sequencer at %v; the skipped grant's glsn must still advance it past 7", node.nextGLSN)
	}
	// The grant log holds the duplicated grant once and not the skipped one.
	if want := []grantRange{{First: 1, Count: 1, TicketID: "TDUP"}}; !slices.Equal(node.grantLog, want) {
		t.Fatalf("grant log %v, want %v", node.grantLog, want)
	}
}
