package cluster

import (
	"context"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"

	"confaudit/internal/logmodel"
	"confaudit/internal/storage"
	"confaudit/internal/telemetry"
	"confaudit/internal/ticket"
	"confaudit/internal/transport"
)

func syncRequests() int64 { return telemetry.M.Counter(telemetry.CtrSyncRequests).Value() }
func syncRanges() int64   { return telemetry.M.Counter(telemetry.CtrSyncRanges).Value() }

// startupSynced waits until every follower of tc has finished the sync
// it asks the leader for from Start; before is the request counter read
// before tc started. Unless a caller waits, that ask can be counted
// after the caller's baseline, and its answer, if the leader serves it
// late, can ship ranges granted after the baseline.
func startupSynced(t *testing.T, tc *testCluster, before int64) {
	t.Helper()
	want := int64(len(tc.boot.Roster) - 1)
	deadline := time.Now().Add(5 * time.Second)
	for syncRequests()-before < want {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d start-up syncs counted", syncRequests()-before, want)
		}
		time.Sleep(time.Millisecond)
	}
	// A sync is counted under its node's syncMu, so taking the lock
	// waits out each answer still being applied.
	for _, n := range tc.nodes {
		//lint:ignore SA2001 the empty critical section is the barrier
		n.syncMu.Lock()
		n.syncMu.Unlock()
	}
}

// grantEntries returns the grant entries a store holds.
func grantEntries(t *testing.T, st storage.Store) []walEntry {
	t.Helper()
	var out []walEntry
	if err := replayStore(st, func(e walEntry) error {
		if e.Kind == "grant" {
			out = append(out, e)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// batchRecords is n appendRecords starting at index first.
func batchRecords(first, n int) []map[logmodel.Attr]logmodel.Value {
	recs := make([]map[logmodel.Attr]logmodel.Value, n)
	for i := range recs {
		recs[i] = appendRecord(first + i)
	}
	return recs
}

// TestPipelinedAppendDoesNotSync pins that a healthy pipelined writer
// never sends a follower to the leader for catch-up. With MaxInflight 4
// the next range is proposed while followers may still be applying the
// previous commits: a gap the commits in flight close, not a loss.
func TestPipelinedAppendDoesNotSync(t *testing.T) {
	started := syncRequests()
	tc := startCluster(t)
	ctx := testCtx(t)
	c := tc.client(t, "ap-nosync", "TNOSYNC", ticket.OpWrite)
	if err := c.RegisterTicket(ctx); err != nil {
		t.Fatal(err)
	}
	startupSynced(t, tc, started)
	base := syncRequests()
	ap, err := c.NewAppender(ctx, AppendOptions{MaxBatchRecords: 64, MaxInflight: 4})
	if err != nil {
		t.Fatal(err)
	}
	const n = 2000
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
			t.Fatalf("ack %d: %v", i, err)
		}
	}
	if d := syncRequests() - base; d != 0 {
		t.Fatalf("%d catch-up syncs during a healthy pipelined append", d)
	}
}

// TestFollowerCatchesUpAfterHeal cuts a follower off for k rounds and
// checks that every catch-up trigger brings its access table back to
// the leader's: a commit, a proposal or a store that lands ahead of
// its state.
func TestFollowerCatchesUpAfterHeal(t *testing.T) {
	const k = 3

	// P1 misses k assignments. The next round's proposal is lost too,
	// so only its commit shows the gap: certified past P1's next glsn,
	// it makes P1 pull what it missed. The leader broadcasts a commit
	// before applying it; holding its commit to P2 until it has
	// answered P1 makes that answer stop short of the round P1 is
	// applying, which P1 then applies from the commit itself.
	t.Run("partition", func(t *testing.T) {
		started := syncRequests()
		tc := startCluster(t)
		ctx := testCtx(t)
		c := tc.client(t, "heal-u", "THEAL", ticket.OpWrite)
		if err := c.RegisterTicket(ctx); err != nil {
			t.Fatal(err)
		}
		startupSynced(t, tc, started)
		requests, shipped := syncRequests(), syncRanges()
		tc.net.Partition("P1")
		requestGLSNs(ctx, t, c, k)
		answered := make(chan struct{})
		var once sync.Once
		tc.net.SetDropFn(func(m transport.Message) bool {
			switch {
			case m.To == "P1" && m.Type == msgAgreeReq:
				return true
			case m.To == "P1" && m.Type == msgSyncResp:
				once.Do(func() { close(answered) })
			case m.To == "P2" && m.Type == msgAgreeCommit:
				select {
				case <-answered:
				case <-time.After(5 * time.Second):
				}
			}
			return false
		})
		requestGLSNs(ctx, t, c, 1)
		waitConverged(t, tc, "P1", "THEAL", k+1)
		if d, r := syncRequests()-requests, syncRanges()-shipped; d != 1 || r != k {
			t.Fatalf("P1 converged on %d syncs shipping %d ranges, want 1 sync of %d", d, r, k)
		}
		tc.net.Partition() // heal
		requestGLSNs(ctx, t, c, k)
		waitConverged(t, tc, "P1", "THEAL", 2*k+1)
	})

	// P3 keeps voting but every commit to it is lost, so nothing but
	// the next proposal shows the gap; it waits out syncAfter for the
	// closing commit, then pulls from the leader. Only such a sync can
	// give P3 the grants of the first k-1 rounds.
	t.Run("lost commits", func(t *testing.T) {
		started := syncRequests()
		tc := startCluster(t)
		ctx := testCtx(t)
		c := tc.client(t, "heal-u", "THEAL", ticket.OpWrite)
		if err := c.RegisterTicket(ctx); err != nil {
			t.Fatal(err)
		}
		startupSynced(t, tc, started)
		base := syncRequests()
		tc.net.SetDropFn(func(m transport.Message) bool {
			return m.To == "P3" && m.Type == msgAgreeCommit
		})
		defer tc.net.SetDropFn(nil)
		gs := requestGLSNs(ctx, t, c, k)
		p3 := tc.nodes["P3"].AccessTable()
		deadline := time.Now().Add(5 * time.Second)
		for !p3.HasGrant("THEAL", gs[k-2]) {
			if time.Now().After(deadline) {
				t.Fatalf("P3 never pulled the grants of lost commits: has %v of %v", p3.Glsns("THEAL"), gs)
			}
			time.Sleep(20 * time.Millisecond)
		}
		if syncRequests() == base {
			t.Fatal("P3 holds grants whose commits it never received, without a sync")
		}
	})

	// A durable cluster: P3 is partitioned through k LogBatch rounds
	// and catch-up costs O(missed): the leader ships k ranges, the
	// follower journals k grant entries, and its access table converges
	// to the leader's. The leader, restarted from its journal, rebuilds
	// its grant log and serves the same ranges.
	t.Run("outbox replay", func(t *testing.T) {
		const batch = 5
		root := t.TempDir()
		ctx := testCtx(t)
		started := syncRequests()
		tc, stop := durableCluster(t, root)
		defer func() { stop() }()
		startupSynced(t, tc, started)

		// The outbox spools P3's store batches while it is cut off, so the
		// writes succeed without it.
		ep, err := tc.net.Endpoint("heal-u")
		if err != nil {
			t.Fatal(err)
		}
		mb := transport.NewMailbox(ep)
		defer mb.Close() //nolint:errcheck
		tk, err := tc.boot.Issuer.Issue("THEAL", "heal-u", ticket.OpWrite)
		if err != nil {
			t.Fatal(err)
		}
		c, err := OpenClient(mb, ClientConfig{
			Roster: tc.boot.Roster, Partition: tc.boot.Partition, Accumulator: tc.boot.AccParams, Ticket: tk,
			OutboxPath: filepath.Join(t.TempDir(), "heal.outbox"),
		})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close() //nolint:errcheck
		if err := c.RegisterTicket(ctx); err != nil {
			t.Fatal(err)
		}
		p3 := tc.nodes["P3"]
		journaled := len(grantEntries(t, p3.journal.s))

		tc.net.Partition("P3")
		missed := make([]logmodel.GLSN, k)
		for i := range missed {
			gs, err := c.LogBatch(ctx, batchRecords(i*batch, batch))
			if err != nil {
				t.Fatalf("LogBatch during partition: %v", err)
			}
			missed[i] = gs[0]
		}
		if p3.AccessTable().HasGrant("THEAL", missed[0]) {
			t.Fatal("P3 saw a grant through the partition")
		}
		tc.net.Partition() // heal

		// Replaying the spooled batches exposes the gap: P3 finds no grant
		// for the first batch, waits out a quiet slice, and pulls the missed
		// ranges from the leader once.
		shipped := syncRanges()
		if delivered, err := c.ReplayOutbox(ctx, "P3"); err != nil || delivered != k {
			t.Fatalf("replayed %d of %d spooled batches: %v", delivered, k, err)
		}
		if d := syncRanges() - shipped; d != k {
			t.Fatalf("leader shipped %d ranges for %d missed commits", d, k)
		}
		if lead, got := tc.nodes["P0"].AccessTable().Glsns("THEAL"), p3.AccessTable().Glsns("THEAL"); !slices.Equal(lead, got) {
			t.Fatalf("P3 access table %v, leader %v", got, lead)
		}
		gained := grantEntries(t, p3.journal.s)[journaled:]
		if len(gained) != k {
			t.Fatalf("P3 journaled %d grant entries for %d missed ranges", len(gained), k)
		}
		for i, e := range gained {
			if e.GLSN != missed[i] || e.Count != batch {
				t.Fatalf("journaled grant %d = [%s, +%d), want [%s, +%d)", i, e.GLSN, e.Count, missed[i], batch)
			}
		}

		want := tc.nodes["P0"].grantsFrom(missed[0])
		if len(want) != k {
			t.Fatalf("leader serves %d ranges from %s, want %d", len(want), missed[0], k)
		}
		stop()
		tc2, stop2 := durableCluster(t, root)
		stop = stop2
		if got := tc2.nodes["P0"].grantsFrom(missed[0]); !slices.Equal(got, want) {
			t.Fatalf("restarted leader serves %v, want %v", got, want)
		}
	})
}

// requestGLSNs runs n single-glsn sequencer rounds (ranges of one).
func requestGLSNs(ctx context.Context, t *testing.T, c *Client, n int) []logmodel.GLSN {
	t.Helper()
	gs := make([]logmodel.GLSN, n)
	for i := range gs {
		g, err := c.RequestGLSNRange(ctx, 1)
		if err != nil {
			t.Fatalf("glsn round %d: %v", i, err)
		}
		gs[i] = g
	}
	return gs
}

// waitConverged waits until the leader holds want grants for the
// ticket and the follower's access table equals the leader's.
func waitConverged(t *testing.T, tc *testCluster, follower, ticketID string, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		lead := tc.nodes["P0"].AccessTable().Glsns(ticketID)
		got := tc.nodes[follower].AccessTable().Glsns(ticketID)
		if len(lead) == want && slices.Equal(got, lead) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s never caught up: leader %v, %s %v", follower, lead, follower, got)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestCompactionSnapshotsGrantRanges compacts a durable cluster and
// checks the snapshot holds one grant entry per range, not per glsn,
// and that a restart from it rebuilds identical access tables and grant
// logs. The "wal" rig seals a segment every few frames, so what is
// compacted is a log of many sealed segments rather than one open tail;
// it never asks for background compaction, so the test's own compaction
// is the one that folds them.
func TestCompactionSnapshotsGrantRanges(t *testing.T) {
	for _, rig := range []struct {
		name string
		opts storage.Options
	}{
		{"wal", storage.Options{SegmentBytes: 512, CompactSegments: 1 << 20}},
		{"segment", storage.Options{}},
	} {
		t.Run(rig.name, func(t *testing.T) {
			compactionSnapshotsGrantRanges(t, rig.opts)
		})
	}
}

func compactionSnapshotsGrantRanges(t *testing.T, opts storage.Options) {
	root := t.TempDir()
	ctx := testCtx(t)
	tc, stop := durableClusterOpts(t, root, opts)
	c := tc.client(t, "snap-u", "TSNAP", ticket.OpWrite)
	if err := c.RegisterTicket(ctx); err != nil {
		t.Fatal(err)
	}
	sizes := []int{4, 1, 6, 3}
	for i, size := range sizes {
		if _, err := c.LogBatch(ctx, batchRecords(10*i, size)); err != nil {
			t.Fatal(err)
		}
	}
	if opts.SegmentBytes > 0 {
		if n := len(tc.nodes["P0"].journal.s.Status().Segments); n < 3 {
			t.Fatalf("P0 journal spans %d segments before compaction; the rig wants several", n)
		}
	}
	tables := make(map[string][]logmodel.GLSN)
	logs := make(map[string][]grantRange)
	for id, node := range tc.nodes {
		if err := node.CompactStorage(); err != nil {
			t.Fatal(err)
		}
		tables[id] = node.AccessTable().Glsns("TSNAP")
		logs[id] = node.grantsFrom(0)
	}
	stop()

	st := openStore(t, filepath.Join(root, "P0"))
	snap := grantEntries(t, st)
	st.Close() //nolint:errcheck // read-only
	if len(snap) != len(sizes) {
		t.Fatalf("snapshot holds %d grant entries for %d ranges", len(snap), len(sizes))
	}
	for i, e := range snap {
		if e.Count != sizes[i] {
			t.Fatalf("snapshot grant %d covers %d glsns, want %d", i, e.Count, sizes[i])
		}
	}

	tc2, stop2 := durableClusterOpts(t, root, opts)
	defer stop2()
	for id, node := range tc2.nodes {
		if got := node.AccessTable().Glsns("TSNAP"); !slices.Equal(got, tables[id]) {
			t.Fatalf("%s access table after restart %v, before %v", id, got, tables[id])
		}
		if got := node.grantsFrom(0); !slices.Equal(got, logs[id]) {
			t.Fatalf("%s grant log after restart %v, before %v", id, got, logs[id])
		}
	}
}

// TestGrantsFromTrimsAndSearches pins the leader's catch-up answer:
// every range at or past from, the first trimmed to start at from.
func TestGrantsFromTrimsAndSearches(t *testing.T) {
	n := &Node{grantLog: []grantRange{{1, 4, "A"}, {5, 1, "B"}, {6, 3, "A"}}}
	for _, tc := range []struct {
		from logmodel.GLSN
		want []grantRange
	}{
		{0, []grantRange{{1, 4, "A"}, {5, 1, "B"}, {6, 3, "A"}}},
		{3, []grantRange{{3, 2, "A"}, {5, 1, "B"}, {6, 3, "A"}}},
		{5, []grantRange{{5, 1, "B"}, {6, 3, "A"}}},
		{8, []grantRange{{8, 1, "A"}}},
		{9, nil},
	} {
		if got := n.grantsFrom(tc.from); !slices.Equal(got, tc.want) {
			t.Errorf("grantsFrom(%d) = %v, want %v", tc.from, got, tc.want)
		}
	}
}

// TestOrderGrantLog pins the replay normalisation: duplicates a
// snapshot-plus-delta replay re-journals are dropped or trimmed, and an
// out-of-order log is sorted.
func TestOrderGrantLog(t *testing.T) {
	for _, tc := range []struct {
		name    string
		in, out []grantRange
	}{
		{"in order", []grantRange{{1, 2, "A"}, {3, 1, "B"}}, []grantRange{{1, 2, "A"}, {3, 1, "B"}}},
		{"duplicate", []grantRange{{1, 2, "A"}, {1, 2, "A"}, {3, 1, "B"}}, []grantRange{{1, 2, "A"}, {3, 1, "B"}}},
		{"overlap", []grantRange{{1, 4, "A"}, {3, 4, "A"}}, []grantRange{{1, 4, "A"}, {5, 2, "A"}}},
		{"per ticket", []grantRange{{1, 1, "A"}, {3, 1, "A"}, {2, 1, "B"}}, []grantRange{{1, 1, "A"}, {2, 1, "B"}, {3, 1, "A"}}},
	} {
		if got := orderGrantLog(tc.in); !slices.Equal(got, tc.out) {
			t.Errorf("%s: orderGrantLog = %v, want %v", tc.name, got, tc.out)
		}
	}
}
