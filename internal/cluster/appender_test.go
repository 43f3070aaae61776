package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"confaudit/internal/logmodel"
	"confaudit/internal/ticket"
	"confaudit/internal/transport"
)

// startClusterWithAdmission is startCluster with every node's ingest
// admission boundary configured — the rig for overload tests.
func startClusterWithAdmission(t *testing.T, adm AdmissionConfig) *testCluster {
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
		cfg.Admission = adm
		node, err := New(cfg, mb)
		if err != nil {
			t.Fatal(err)
		}
		node.Start(ctx)
		tc.nodes[id] = node
	}
	t.Cleanup(func() {
		cancel()
		net.Close() //nolint:errcheck
		for _, n := range tc.nodes {
			n.Wait()
		}
	})
	return tc
}

func appendRecord(i int) map[logmodel.Attr]logmodel.Value {
	return map[logmodel.Attr]logmodel.Value{
		"id": logmodel.String(fmt.Sprintf("A%d", i)),
		"C1": logmodel.Int(int64(i)),
	}
}

// TestAppenderAckOrdering pins the ordering contract: acks resolve with
// glsns strictly increasing in append order, even though batches store
// concurrently, and every record reads back under its acked glsn.
func TestAppenderAckOrdering(t *testing.T) {
	tc := startCluster(t)
	ctx := testCtx(t)
	c := tc.client(t, "ap-ord", "TAPO", ticket.OpWrite, ticket.OpRead)
	if err := c.RegisterTicket(ctx); err != nil {
		t.Fatal(err)
	}
	ap, err := c.NewAppender(ctx, AppendOptions{MaxBatchRecords: 8, Linger: time.Millisecond, MaxInflight: 4})
	if err != nil {
		t.Fatal(err)
	}
	const n = 100
	acks := make([]*Ack, 0, n)
	for i := 0; i < n; i++ {
		ack, err := ap.Append(ctx, appendRecord(i))
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		acks = append(acks, ack)
	}
	if err := ap.Close(ctx); err != nil {
		t.Fatal(err)
	}
	var prev logmodel.GLSN
	for i, ack := range acks {
		g, err := ack.GLSN()
		if err != nil {
			t.Fatalf("ack %d failed: %v", i, err)
		}
		if i > 0 && g <= prev {
			t.Fatalf("ack %d glsn %s not after %s: acks out of append order", i, g, prev)
		}
		prev = g
	}
	for _, i := range []int{0, n / 2, n - 1} {
		g, _ := acks[i].GLSN()
		rec, err := c.Read(ctx, g)
		if err != nil {
			t.Fatalf("reading record %d at %s: %v", i, g, err)
		}
		if rec.Values["C1"].I != int64(i) {
			t.Fatalf("record %d read back %v", i, rec.Values)
		}
	}
}

// TestAppenderFlush pins that Flush resolves every staged ack without
// waiting out a long linger and without closing the appender.
func TestAppenderFlush(t *testing.T) {
	tc := startCluster(t)
	ctx := testCtx(t)
	c := tc.client(t, "ap-fl", "TAPF", ticket.OpWrite)
	if err := c.RegisterTicket(ctx); err != nil {
		t.Fatal(err)
	}
	ap, err := c.NewAppender(ctx, AppendOptions{MaxBatchRecords: 64, Linger: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer ap.Close(ctx) //nolint:errcheck
	var acks []*Ack
	for i := 0; i < 5; i++ {
		ack, err := ap.Append(ctx, appendRecord(i))
		if err != nil {
			t.Fatal(err)
		}
		acks = append(acks, ack)
	}
	if err := ap.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	for i, ack := range acks {
		select {
		case <-ack.Done():
		default:
			t.Fatalf("ack %d unresolved after Flush", i)
		}
		if _, err := ack.GLSN(); err != nil {
			t.Fatalf("ack %d failed: %v", i, err)
		}
	}
}

// TestAppenderOverloadBlock injects admission refusals (a bucket much
// smaller than the run): every record must
// still ack — backpressure, not loss — and the nodes must actually have
// refused along the way, or the test proved nothing.
func TestAppenderOverloadBlock(t *testing.T) {
	tc := startClusterWithAdmission(t, AdmissionConfig{RecordsPerSec: 400, Burst: 32})
	ctx := testCtx(t)
	c := tc.client(t, "ap-ob", "TAPB", ticket.OpWrite)
	if err := c.RegisterTicket(ctx); err != nil {
		t.Fatal(err)
	}
	ap, err := c.NewAppender(ctx, AppendOptions{
		MaxBatchRecords: 16,
		Linger:          time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	const n = 120
	acks := make([]*Ack, 0, n)
	for i := 0; i < n; i++ {
		ack, err := ap.Append(ctx, appendRecord(i))
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		acks = append(acks, ack)
	}
	if err := ap.Close(ctx); err != nil {
		t.Fatal(err)
	}
	for i, ack := range acks {
		if _, err := ack.GLSN(); err != nil {
			t.Fatalf("ack %d failed under blocking backpressure: %v", i, err)
		}
	}
	rejected := int64(0)
	for _, node := range tc.nodes {
		rejected += node.AdmissionStatus().Rejected
	}
	if rejected == 0 {
		t.Fatal("no admission refusals recorded; overload was never exercised")
	}
}

// TestAppenderCloseDrains pins the Close contract under -race: records
// staged concurrently from several goroutines — some still unsealed in
// the linger buffer when Close begins — must all resolve, exactly once,
// before Close returns; Append afterwards refuses.
func TestAppenderCloseDrains(t *testing.T) {
	tc := startCluster(t)
	ctx := testCtx(t)
	c := tc.client(t, "ap-cd", "TAPC", ticket.OpWrite)
	if err := c.RegisterTicket(ctx); err != nil {
		t.Fatal(err)
	}
	ap, err := c.NewAppender(ctx, AppendOptions{MaxBatchRecords: 32, Linger: time.Hour, MaxInflight: 2})
	if err != nil {
		t.Fatal(err)
	}
	const producers, each = 4, 25
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		acks []*Ack
	)
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				ack, err := ap.Append(ctx, appendRecord(p*each+i))
				if err != nil {
					t.Errorf("append: %v", err)
					return
				}
				mu.Lock()
				acks = append(acks, ack)
				mu.Unlock()
			}
		}(p)
	}
	wg.Wait()
	if err := ap.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if len(acks) != producers*each {
		t.Fatalf("staged %d records, want %d", len(acks), producers*each)
	}
	seen := make(map[logmodel.GLSN]bool)
	for i, ack := range acks {
		select {
		case <-ack.Done():
		default:
			t.Fatalf("ack %d unresolved after Close", i)
		}
		g, err := ack.GLSN()
		if err != nil {
			t.Fatalf("ack %d failed: %v", i, err)
		}
		if seen[g] {
			t.Fatalf("glsn %s acked twice", g)
		}
		seen[g] = true
	}
	if _, err := ap.Append(ctx, appendRecord(0)); !errors.Is(err, ErrAppenderClosed) {
		t.Fatalf("append after Close: %v, want ErrAppenderClosed", err)
	}
}
