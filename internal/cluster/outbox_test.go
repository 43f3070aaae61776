package cluster

import (
	"path/filepath"
	"testing"
	"time"

	"confaudit/internal/logmodel"
	"confaudit/internal/ticket"
	"confaudit/internal/transport"
)

// TestOutboxSpoolReplaysBinaryStoreBatch sends an appender batch toward
// a node that is down for stores, so the batch spools as its binary
// payload. Once the node is reachable again, ReplayOutbox resends the
// spooled bytes verbatim, and the fragment and its digest exponent are
// readable on that node.
func TestOutboxSpoolReplaysBinaryStoreBatch(t *testing.T) {
	tc := startCluster(t)
	ctx := testCtx(t)
	target := tc.boot.Partition.Owner("id")
	witness := tc.boot.Partition.Owner("C1")
	if target == witness {
		t.Fatalf("id and C1 both live on %s; the test needs two nodes", target)
	}

	ep, err := tc.net.Endpoint("spooler")
	if err != nil {
		t.Fatal(err)
	}
	mb := transport.NewMailbox(ep)
	t.Cleanup(func() { mb.Close() }) //nolint:errcheck
	tk, err := tc.boot.Issuer.Issue("TSPOOL", "spooler", ticket.OpWrite, ticket.OpRead)
	if err != nil {
		t.Fatal(err)
	}
	c, err := OpenClient(mb, ClientConfig{
		Roster: tc.boot.Roster, Partition: tc.boot.Partition, Accumulator: tc.boot.AccParams, Ticket: tk,
		OutboxPath: filepath.Join(t.TempDir(), "spool.outbox"),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close() //nolint:errcheck
	if err := c.RegisterTicket(ctx); err != nil {
		t.Fatal(err)
	}

	// The target is down for stores: every store batch toward it fails
	// in transit.
	tc.net.SetDropFn(func(m transport.Message) bool {
		return m.To == target && m.Type == MsgLogStoreBatch
	})
	ap, err := c.NewAppender(ctx, AppendOptions{MaxBatchRecords: 4, Linger: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	const n = 4
	acks := make([]*Ack, n)
	for i := range acks {
		if acks[i], err = ap.Append(ctx, appendRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := ap.Close(ctx); err != nil {
		t.Fatal(err)
	}
	gs := make([]logmodel.GLSN, n)
	for i, ack := range acks {
		if gs[i], err = ack.Wait(ctx); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}

	spooled := c.outbox.For(target)
	if len(spooled) == 0 {
		t.Fatal("nothing spooled for the unreachable node")
	}
	for _, e := range spooled {
		if e.Type != MsgLogStoreBatch || !transport.IsBinaryPayload(e.Payload) {
			t.Fatalf("spooled %s entry with a non-binary payload: %q", e.Type, e.Payload)
		}
	}
	node := tc.nodes[target]
	if _, ok := node.Fragment(gs[0]); ok {
		t.Fatal("fragment reached the node while it was down")
	}

	tc.net.SetDropFn(nil)
	delivered, err := c.ReplayOutbox(ctx, target)
	if err != nil {
		t.Fatal(err)
	}
	if delivered != len(spooled) || c.OutboxLen() != 0 {
		t.Fatalf("replayed %d of %d spooled entries; %d left", delivered, len(spooled), c.OutboxLen())
	}
	for i, g := range gs {
		frag, ok := node.Fragment(g)
		if !ok {
			t.Fatalf("glsn %s: fragment missing after replay", g)
		}
		if want := appendRecord(i)["id"]; !frag.Values["id"].Equal(want) {
			t.Fatalf("glsn %s: id = %v, want %v", g, frag.Values["id"], want)
		}
		node.mu.RLock()
		run, _ := node.frags.get(g)
		node.mu.RUnlock()
		v := heldView(run)
		if exp := bigOf(v.dexp); exp == nil {
			t.Fatalf("glsn %s: digest exponent missing after replay", g)
		}
		got, ok := node.Digest(g)
		want, wok := tc.nodes[witness].Digest(g)
		if !ok || !wok || got.Cmp(want) != 0 {
			t.Fatalf("glsn %s: replayed digest disagrees with %s's", g, witness)
		}
	}
}
