package cluster

import (
	"context"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"confaudit/internal/logmodel"
	"confaudit/internal/resilience"
	"confaudit/internal/ticket"
	"confaudit/internal/transport"
)

// awaitGoroutines polls until the live goroutine count falls back to
// within slack of the baseline (slack tolerates runtime helpers).
func awaitGoroutines(t *testing.T, baseline, slack int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline+slack {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("goroutines leaked: baseline %d, now %d\n%s",
				baseline, runtime.NumGoroutine(), buf)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// steadyGoroutines is the least goroutine count seen over a short
// window: handler goroutines still finishing a request only inflate it.
func steadyGoroutines() int {
	low := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		time.Sleep(2 * time.Millisecond)
		if n := runtime.NumGoroutine(); n < low {
			low = n
		}
	}
	return low
}

// TestNodeStartReleasesGoroutinesOnCancel accounts for every goroutine
// Node.Start spawns — service loops, the failure detector, store
// handlers: after a full log round-trip and context cancellation, the
// process must return to its baseline goroutine count.
func TestNodeStartReleasesGoroutinesOnCancel(t *testing.T) {
	baseline := runtime.NumGoroutine()

	boot := sharedBootstrap(t)
	net := transport.NewMemNetwork()
	ctx, cancel := context.WithCancel(context.Background())
	var nodes []*Node
	for _, id := range boot.Roster {
		ep, err := net.Endpoint(id)
		if err != nil {
			t.Fatal(err)
		}
		mb := transport.NewMailbox(ep)
		node, err := New(boot.NodeConfig(id), mb)
		if err != nil {
			t.Fatal(err)
		}
		node.Start(ctx)
		nodes = append(nodes, node)
	}

	// Drive one full store so glsn-agreement and store handlers all run.
	ep, err := net.Endpoint("u-shutdown")
	if err != nil {
		t.Fatal(err)
	}
	mb := transport.NewMailbox(ep)
	tk, err := boot.Issuer.Issue("TSD", "u-shutdown", ticket.OpWrite, ticket.OpRead)
	if err != nil {
		t.Fatal(err)
	}
	c, err := OpenClient(mb, ClientConfig{Roster: boot.Roster, Partition: boot.Partition, Accumulator: boot.AccParams, Ticket: tk})
	if err != nil {
		t.Fatal(err)
	}
	opCtx, opCancel := context.WithTimeout(ctx, 30*time.Second)
	if err := c.RegisterTicket(opCtx); err != nil {
		t.Fatal(err)
	}
	ex, err := logmodel.NewPaperExample()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Log(opCtx, ex.Records[0].Values); err != nil {
		t.Fatal(err)
	}
	opCancel()

	cancel()
	net.Close() //nolint:errcheck
	for _, n := range nodes {
		n.Wait()
	}
	mb.Close() //nolint:errcheck
	awaitGoroutines(t, baseline, 2)
}

// TestClientCloseReleasesGoroutines opens a client with a health
// detector and an outbox, spools a store for a node whose store batches
// are lost, and closes it: the detector and replay loops must exit, so
// the goroutine count returns exactly to its value before OpenClient,
// and the spooled entry must stay on disk and replay from a client
// reopened on the same path.
func TestClientCloseReleasesGoroutines(t *testing.T) {
	tc := startCluster(t)
	ctx := testCtx(t)
	const target = "P2"
	tk, err := tc.boot.Issuer.Issue("TCLOSE", "u-close", ticket.OpWrite, ticket.OpRead)
	if err != nil {
		t.Fatal(err)
	}
	ep, err := tc.net.Endpoint("u-close")
	if err != nil {
		t.Fatal(err)
	}
	mb := transport.NewMailbox(ep)
	t.Cleanup(func() { mb.Close() }) //nolint:errcheck
	cfg := ClientConfig{Roster: tc.boot.Roster, Partition: tc.boot.Partition, Accumulator: tc.boot.AccParams, Ticket: tk}
	// Registering through a plain client first settles the baseline:
	// every mailbox pump involved has run by the time the acks are in.
	plain, err := OpenClient(mb, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := plain.RegisterTicket(ctx); err != nil {
		t.Fatal(err)
	}
	baseline := steadyGoroutines()

	cfg.OutboxPath = filepath.Join(t.TempDir(), "close.outbox")
	cfg.Health = &resilience.DetectorConfig{Interval: 5 * time.Millisecond}
	c, err := OpenClient(mb, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c.HealthView() == nil {
		t.Fatal("configured health detector did not start")
	}
	tc.net.SetDropFn(func(m transport.Message) bool {
		return m.To == target && m.Type == MsgLogStoreBatch
	})
	g, err := c.Log(ctx, appendRecord(0))
	if err != nil {
		t.Fatal(err)
	}
	if n := c.OutboxLen(); n != 1 {
		t.Fatalf("spooled %d entries, want 1", n)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	awaitGoroutines(t, baseline, 0)

	tc.net.SetDropFn(nil)
	cfg.Health = nil
	reopened, err := OpenClient(mb, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close() //nolint:errcheck
	if n := reopened.OutboxLen(); n != 1 {
		t.Fatalf("reopened outbox holds %d entries, want 1", n)
	}
	if delivered, err := reopened.ReplayOutbox(ctx, target); err != nil || delivered != 1 {
		t.Fatalf("replayed %d entries: %v", delivered, err)
	}
	if _, ok := tc.nodes[target].Fragment(g); !ok {
		t.Fatalf("glsn %s: fragment missing on %s after replay", g, target)
	}
}
