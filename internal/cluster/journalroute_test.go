package cluster

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"confaudit/internal/logmodel"
	"confaudit/internal/ticket"
	"confaudit/internal/transport"
)

// openDurableNode builds node id over the segment store in dir, replaying
// whatever it holds. The node is not started: tests drive its mutators
// directly.
func openDurableNode(t *testing.T, id, dir string) *Node {
	t.Helper()
	net := transport.NewMemNetwork()
	t.Cleanup(func() { net.Close() }) //nolint:errcheck
	ep, err := net.Endpoint(id)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sharedBootstrap(t).NodeConfig(id)
	cfg.Storage = openStore(t, dir)
	node, err := New(cfg, transport.NewMailbox(ep))
	if err != nil {
		t.Fatal(err)
	}
	return node
}

// TestStagedBatchSurvivesCompactionBeforeCommit compacts in the window
// between a batch's stage and its commit, then deletes one of the
// batch's records and restarts. The compaction snapshot already holds
// the batch and the rewrite drains the staged group ahead of it, so
// after the restart every other record of the batch is journaled once
// and installed, and the deleted one stays deleted.
func TestStagedBatchSurvivesCompactionBeforeCommit(t *testing.T) {
	dir := t.TempDir()
	tk, err := sharedBootstrap(t).Issuer.Issue("TSTG", "stg-u", ticket.OpWrite, ticket.OpDelete)
	if err != nil {
		t.Fatal(err)
	}
	// The batch's fragments carry C1, so the node that owns C1 holds them.
	owner := sharedBootstrap(t).Partition.Owner("C1")
	node := openDurableNode(t, owner, dir)
	if err := node.registerTicket(&ticketRegisterBody{Ticket: ToWire(tk)}); err != nil {
		t.Fatal(err)
	}
	base := node.nextGLSN
	entries := stagedFragEntries(ingestFanoutThreshold)
	for i := range entries {
		entries[i].Item.Fragment.GLSN = base + logmodel.GLSN(i)
	}
	if err := node.applyGrantRange(base, len(entries), "TSTG"); err != nil {
		t.Fatal(err)
	}

	// The batch's route up to its commit: encode, then apply and stage
	// under the state lock.
	recs, err := node.journal.encode(entries)
	if err != nil {
		t.Fatal(err)
	}
	node.mu.Lock()
	for i := range entries {
		v, _, err := viewItem(appendBatchItem(nil, entries[i].Item), nil)
		if err == nil {
			err = node.admitItem(&v)
		}
		if err != nil {
			t.Fatal(err)
		}
		node.frags.install(&v, node.id)
	}
	node.journal.stage(recs)
	node.mu.Unlock()
	if err := node.CompactStorage(); err != nil {
		t.Fatal(err)
	}
	if err := node.journal.commit(); err != nil {
		t.Fatal(err)
	}
	victim := entries[3].Item.Fragment.GLSN
	if err := node.deleteFragment("TSTG", victim); err != nil {
		t.Fatal(err)
	}
	if err := node.Close(); err != nil {
		t.Fatal(err)
	}

	frags := make(map[logmodel.GLSN]int)
	for _, e := range journalEntries(t, dir) {
		if e.Kind == "frag" {
			frags[e.Item.glsn()]++
		}
	}
	restarted := openDurableNode(t, owner, dir)
	defer restarted.Close() //nolint:errcheck
	held := restarted.GLSNs()
	for _, e := range entries {
		g := e.Item.Fragment.GLSN
		switch {
		case g == victim:
			if slices.Contains(held, g) {
				t.Fatalf("deleted record %s came back after restart", g)
			}
		case frags[g] != 1:
			t.Fatalf("record %s journaled %d times, want once", g, frags[g])
		case !slices.Contains(held, g):
			t.Fatalf("record %s lost across restart", g)
		}
	}
}

// TestConcurrentJournalReplayMatchesLive runs two writers storing
// batches below and at least at the fan-out threshold and deleting one
// record of each, overwrites racing deletes of the same records, and
// every node compacting its journal in a loop. A restart from the
// journals must then reproduce every node's live answers exactly.
func TestConcurrentJournalReplayMatchesLive(t *testing.T) {
	root := t.TempDir()
	ctx := testCtx(t)
	tc, stop := durableCluster(t, root)
	var (
		mu     sync.Mutex
		all    []logmodel.GLSN
		probes []indexProbe
		wg     sync.WaitGroup
	)
	// A third client overwrites and deletes each of its records from two
	// goroutines at once, so the two mutations of one glsn race on every
	// node: replay reproduces each live outcome only if journal order is
	// apply order.
	hc := tc.client(t, "conc-hot", "TCONCH", ticket.OpWrite, ticket.OpRead, ticket.OpDelete)
	if err := hc.RegisterTicket(ctx); err != nil {
		t.Fatal(err)
	}
	hotRecs := make([]map[logmodel.Attr]logmodel.Value, 24)
	for k := range hotRecs {
		hotRecs[k] = appendRecord(9000 + k)
	}
	hot, err := hc.LogBatch(ctx, hotRecs)
	if err != nil {
		t.Fatal(err)
	}
	all = append(all, hot...)
	for _, rec := range hotRecs {
		for a, v := range rec {
			probes = append(probes, indexProbe{a, v})
		}
	}
	errs := make(chan error, 4)
	wg.Add(2)
	go func() {
		defer wg.Done()
		for k, g := range hot {
			rec := appendRecord(9500 + k)
			if _, err := hc.storeRange(ctx, g, []map[logmodel.Attr]logmodel.Value{rec}, AppendOptions{}.withDefaults()); err != nil {
				errs <- err
				return
			}
			mu.Lock()
			for a, v := range rec {
				probes = append(probes, indexProbe{a, v})
			}
			mu.Unlock()
		}
	}()
	go func() {
		defer wg.Done()
		for _, g := range hot {
			if err := hc.Delete(ctx, g); err != nil && !strings.Contains(err.Error(), ErrUnknownGLSN.Error()) {
				errs <- err
				return
			}
		}
	}()
	for w := range 2 {
		c := tc.client(t, fmt.Sprintf("conc-u%d", w), fmt.Sprintf("TCONC%d", w), ticket.OpWrite, ticket.OpRead, ticket.OpDelete)
		if err := c.RegisterTicket(ctx); err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 6 {
				records := make([]map[logmodel.Attr]logmodel.Value, 3+i%2*ingestFanoutThreshold)
				for k := range records {
					records[k] = appendRecord(w*1000 + i*100 + k)
				}
				gs, err := c.LogBatch(ctx, records)
				if err == nil {
					err = c.Delete(ctx, gs[i%len(gs)])
				}
				if err != nil {
					errs <- err
					return
				}
				mu.Lock()
				all = append(all, gs...)
				for _, rec := range records {
					for a, v := range rec {
						probes = append(probes, indexProbe{a, v})
					}
				}
				mu.Unlock()
			}
		}()
	}
	done := make(chan struct{})
	compacted := make(chan int)
	go func() {
		n := 0
		for {
			select {
			case <-done:
				compacted <- n
				return
			default:
			}
			for id, node := range tc.nodes {
				if err := node.CompactStorage(); err != nil {
					t.Errorf("%s: compacting: %v", id, err)
				}
			}
			n++
		}
	}()
	wg.Wait()
	close(done)
	if n := <-compacted; n == 0 {
		t.Fatal("no compaction ran beside the writers")
	}
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	live := stateSnapshot(tc, all, probes)
	stop()
	tc2, stop2 := durableCluster(t, root)
	defer stop2()
	diffSnapshots(t, "replayed", live, stateSnapshot(tc2, all, probes))
}

// TestGrantOverlapJournalsOnlyTail applies a grant range whose head an
// earlier range already covered, as a commit landing after the sync that
// covered it does. Only the new tail may be granted, logged and
// journaled, and a restart must rebuild the same grant log.
func TestGrantOverlapJournalsOnlyTail(t *testing.T) {
	dir := t.TempDir()
	tk, err := sharedBootstrap(t).Issuer.Issue("TOVL", "ovl-u", ticket.OpWrite)
	if err != nil {
		t.Fatal(err)
	}
	// The batch's fragments carry C1, so the node that owns C1 holds them.
	owner := sharedBootstrap(t).Partition.Owner("C1")
	node := openDurableNode(t, owner, dir)
	if err := node.registerTicket(&ticketRegisterBody{Ticket: ToWire(tk)}); err != nil {
		t.Fatal(err)
	}
	base := node.nextGLSN
	if err := node.applyGrantRange(base, 2, "TOVL"); err != nil {
		t.Fatal(err)
	}
	if err := node.applyGrantRange(base, 5, "TOVL"); err != nil {
		t.Fatal(err)
	}
	want := []grantRange{{First: base, Count: 2, TicketID: "TOVL"}, {First: base + 2, Count: 3, TicketID: "TOVL"}}
	if !slices.Equal(node.grantLog, want) || node.nextGLSN != base+5 {
		t.Fatalf("grant log %v at %s, want %v at %s", node.grantLog, node.nextGLSN, want, base+5)
	}
	if err := node.Close(); err != nil {
		t.Fatal(err)
	}
	var journaled []grantRange
	for _, e := range journalEntries(t, dir) {
		if e.Kind == "grant" {
			journaled = append(journaled, grantRange{First: e.GLSN, Count: e.Count, TicketID: e.TicketID})
		}
	}
	if !slices.Equal(journaled, want) {
		t.Fatalf("journaled grants %v, want %v", journaled, want)
	}
	restarted := openDurableNode(t, owner, dir)
	defer restarted.Close() //nolint:errcheck
	if !slices.Equal(restarted.grantLog, want) {
		t.Fatalf("replayed grant log %v, want %v", restarted.grantLog, want)
	}
}
