package cluster

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"confaudit/internal/logmodel"
	"confaudit/internal/ticket"
	"confaudit/internal/transport"
)

// walCluster starts a cluster whose nodes journal to per-node data
// directories under root.
func walCluster(t *testing.T, root string) (*testCluster, context.CancelFunc) {
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
		cfg.DataDir = filepath.Join(root, id)
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
			n.CloseStorage() //nolint:errcheck
		}
	}
}

// TestWALSurvivesRestart logs records, restarts the whole cluster from
// disk, and verifies reads, grants, and sequencing all survive.
func TestWALSurvivesRestart(t *testing.T) {
	root := t.TempDir()
	ctx := testCtx(t)

	// First incarnation: register, log, delete one record.
	tc, stop := walCluster(t, root)
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
	tc2, stop2 := walCluster(t, root)
	defer stop2()
	c2 := tc2.client(t, "wal-u2", "TWAL2", ticket.OpWrite, ticket.OpRead)
	if err := c2.RegisterTicket(ctx); err != nil {
		t.Fatal(err)
	}

	// The surviving record is readable by its original ticket: recreate
	// the original client (same ticket ID -> already registered from the
	// WAL, so registration would be a duplicate; read directly).
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

// TestCompactionShrinksAndPreserves verifies that compaction removes
// superseded entries while a restart from the compacted journal yields
// identical state.
func TestCompactionShrinksAndPreserves(t *testing.T) {
	root := t.TempDir()
	ctx := testCtx(t)
	tc, stop := walCluster(t, root)
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
	p0WAL := filepath.Join(root, "P0", walFile)
	before, err := os.Stat(p0WAL)
	if err != nil {
		t.Fatal(err)
	}
	for _, node := range tc.nodes {
		if err := node.CompactStorage(); err != nil {
			t.Fatal(err)
		}
	}
	after, err := os.Stat(p0WAL)
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() >= before.Size() {
		t.Fatalf("compaction did not shrink the journal: %d -> %d bytes", before.Size(), after.Size())
	}
	stop()

	// Restart from the compacted journal.
	tc2, stop2 := walCluster(t, root)
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

// TestWALRejectsCorruptJournal refuses journals that are not binary
// records: garbage, and a well-formed JSON line — the retired journal
// format — which is reported as corrupt rather than replayed.
func TestWALRejectsCorruptJournal(t *testing.T) {
	boot := sharedBootstrap(t)
	for name, journal := range map[string]string{
		"garbage":   "{not json\n",
		"json line": `{"kind":"grant","ticket_id":"T1","glsn":10}` + "\n",
	} {
		dir := filepath.Join(t.TempDir(), "P0")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, walFile), []byte(journal), 0o600); err != nil {
			t.Fatal(err)
		}
		replayed := 0
		if err := ReplayWAL(dir, func(walEntry) error { replayed++; return nil }); err == nil || replayed != 0 {
			t.Fatalf("%s: replayed %d entries, err %v", name, replayed, err)
		}
		net := transport.NewMemNetwork()
		ep, err := net.Endpoint("P0")
		if err != nil {
			t.Fatal(err)
		}
		mb := transport.NewMailbox(ep)
		cfg := boot.NodeConfig("P0")
		cfg.DataDir = dir
		_, err = New(cfg, mb)
		mb.Close()  //nolint:errcheck
		net.Close() //nolint:errcheck
		if err == nil {
			t.Fatalf("%s: corrupt journal accepted", name)
		}
	}
}

func TestReplayWALMissingDirIsFresh(t *testing.T) {
	calls := 0
	if err := ReplayWAL(filepath.Join(t.TempDir(), "nope"), func(walEntry) error {
		calls++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if calls != 0 {
		t.Fatal("callback invoked for missing journal")
	}
}

func TestNilWALIsNoop(t *testing.T) {
	var w *WAL
	if err := w.append(walEntry{Kind: "frag"}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}
