package cluster

import (
	"context"
	"crypto/ed25519"
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"confaudit/internal/logmodel"
	"confaudit/internal/telemetry"
	"confaudit/internal/ticket"
)

// leaderRounds reads how many agreement rounds leaders have run in
// this process.
func leaderRounds() int64 {
	return telemetry.M.Snapshot().Histograms[telemetry.HistQuorumRound].Count
}

// appendAll appends n records and returns their acks.
func appendAll(ctx context.Context, t *testing.T, ap *Appender, from, n int) []*Ack {
	t.Helper()
	acks := make([]*Ack, 0, n)
	for i := from; i < from+n; i++ {
		ack, err := ap.Append(ctx, appendRecord(i))
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		acks = append(acks, ack)
	}
	return acks
}

// ackedGLSNs waits for every ack and returns the glsns in ack order.
func ackedGLSNs(t *testing.T, acks []*Ack) []logmodel.GLSN {
	t.Helper()
	out := make([]logmodel.GLSN, len(acks))
	for i, ack := range acks {
		g, err := ack.GLSN()
		if err != nil {
			t.Fatalf("ack %d failed: %v", i, err)
		}
		out[i] = g
	}
	return out
}

// TestAppenderLeaseGLSNsIncrease pins that batches served from a glsn
// lease keep an Appender's glsns strictly increasing in append order
// across lease boundaries, whatever sealed each batch: count, linger or
// Flush. Fewer rounds than batches shows leases served batches.
func TestAppenderLeaseGLSNsIncrease(t *testing.T) {
	tc := startCluster(t)
	ctx := testCtx(t)
	c := tc.client(t, "ap-lease", "TLEASE", ticket.OpWrite)
	if err := c.RegisterTicket(ctx); err != nil {
		t.Fatal(err)
	}
	ap, err := c.NewAppender(ctx, AppendOptions{MaxBatchRecords: 8, Linger: 20 * time.Millisecond, MaxInflight: 4})
	if err != nil {
		t.Fatal(err)
	}
	reasons := []string{telemetry.CtrIngestFlushSize, telemetry.CtrIngestFlushLinger, telemetry.CtrIngestFlushDrain}
	sealed := make(map[string]int64)
	for _, r := range reasons {
		sealed[r] = telemetry.M.Counter(r).Value()
	}
	batches := telemetry.M.Counter(telemetry.CtrIngestBatches).Value()
	rounds := leaderRounds()
	var acks []*Ack
	for k := 0; k < 6; k++ {
		acks = append(acks, appendAll(ctx, t, ap, len(acks), 8)...) // sealed by count
		lingered := appendAll(ctx, t, ap, len(acks), 3)
		acks = append(acks, lingered...)
		if _, err := lingered[0].Wait(ctx); err != nil { // sealed by linger
			t.Fatal(err)
		}
		acks = append(acks, appendAll(ctx, t, ap, len(acks), 5)...)
		if err := ap.Flush(ctx); err != nil { // sealed by Flush
			t.Fatal(err)
		}
	}
	if err := ap.Close(ctx); err != nil {
		t.Fatal(err)
	}
	glsns := ackedGLSNs(t, acks)
	for i := 1; i < len(glsns); i++ {
		if glsns[i] <= glsns[i-1] {
			t.Fatalf("ack %d glsn %s not after %s", i, glsns[i], glsns[i-1])
		}
	}
	for _, r := range reasons {
		if telemetry.M.Counter(r).Value() == sealed[r] {
			t.Fatalf("no batch sealed by %s", r)
		}
	}
	nb := telemetry.M.Counter(telemetry.CtrIngestBatches).Value() - batches
	if nr := leaderRounds() - rounds; nr < 2 || nr >= nb {
		t.Fatalf("%d leader rounds for %d batches: want more than one lease, fewer rounds than batches", nr, nb)
	}
}

// TestAppenderLeaseRounds bounds the sequencer rounds of a stream of
// full batches: leases double from one batch to the pipeline's
// capacity MaxInflight × MaxBatchRecords, so N records take at most
// ceil(N / capacity) + log2(MaxInflight) + 1 rounds, not one per batch.
func TestAppenderLeaseRounds(t *testing.T) {
	const batch, inflight, n = 16, 4, 16 * 4 * 10
	tc := startCluster(t)
	ctx := testCtx(t)
	c := tc.client(t, "ap-rounds", "TROUNDS", ticket.OpWrite)
	if err := c.RegisterTicket(ctx); err != nil {
		t.Fatal(err)
	}
	ap, err := c.NewAppender(ctx, AppendOptions{MaxBatchRecords: batch, Linger: time.Hour, MaxInflight: inflight})
	if err != nil {
		t.Fatal(err)
	}
	rounds := leaderRounds()
	acks := appendAll(ctx, t, ap, 0, n)
	if err := ap.Close(ctx); err != nil {
		t.Fatal(err)
	}
	ackedGLSNs(t, acks)
	limit := int64(math.Ceil(float64(n)/(inflight*batch)) + math.Log2(inflight) + 1)
	if got := leaderRounds() - rounds; got > limit {
		t.Fatalf("%d records in batches of %d took %d leader rounds, want at most %d", n, batch, got, limit)
	}
}

// TestAppenderLeaseOneRecord pins the first lease's size: exactly the
// first batch, so an Appender that writes one record and closes is
// granted one glsn and leaves none unwritten.
func TestAppenderLeaseOneRecord(t *testing.T) {
	tc := startCluster(t)
	ctx := testCtx(t)
	c := tc.client(t, "ap-one", "TONE", ticket.OpWrite)
	if err := c.RegisterTicket(ctx); err != nil {
		t.Fatal(err)
	}
	ap, err := c.NewAppender(ctx, AppendOptions{})
	if err != nil {
		t.Fatal(err)
	}
	acks := appendAll(ctx, t, ap, 0, 1)
	if err := ap.Close(ctx); err != nil {
		t.Fatal(err)
	}
	g := ackedGLSNs(t, acks)[0]
	granted := tc.nodes[tc.boot.Roster[0]].acl.Glsns("TONE")
	if len(granted) != 1 || granted[0] != g {
		t.Fatalf("granted %v for one record acked at %s, want exactly that glsn", granted, g)
	}
}

// TestAppenderLeaseConcurrentWriters runs two Appenders and LogBatch
// side by side on one ticket: their leases and ranges interleave at the
// sequencer, every acked glsn is unique, and every node holds each
// acked record's fragment.
func TestAppenderLeaseConcurrentWriters(t *testing.T) {
	tc := startCluster(t)
	ctx := testCtx(t)
	c := tc.client(t, "ap-conc", "TCONC", ticket.OpWrite)
	if err := c.RegisterTicket(ctx); err != nil {
		t.Fatal(err)
	}
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		glsns []logmodel.GLSN
	)
	keep := func(gs ...logmodel.GLSN) {
		mu.Lock()
		glsns = append(glsns, gs...)
		mu.Unlock()
	}
	for w := 0; w < 2; w++ {
		ap, err := c.NewAppender(ctx, AppendOptions{MaxBatchRecords: 8, Linger: time.Millisecond, MaxInflight: 4})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var acks []*Ack
			for i := 0; i < 150; i++ {
				ack, err := ap.Append(ctx, appendRecord(1000*w+i))
				if err != nil {
					t.Errorf("append: %v", err)
					return
				}
				acks = append(acks, ack)
			}
			if err := ap.Close(ctx); err != nil {
				t.Errorf("close: %v", err)
			}
			for _, ack := range acks {
				g, err := ack.GLSN()
				if err != nil {
					t.Errorf("ack: %v", err)
					return
				}
				keep(g)
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := 0; k < 10; k++ {
			gs, err := c.LogBatch(ctx, []map[logmodel.Attr]logmodel.Value{appendRecord(5000 + 2*k), appendRecord(5001 + 2*k)})
			if err != nil {
				t.Errorf("log batch: %v", err)
				return
			}
			keep(gs...)
		}
	}()
	wg.Wait()
	if t.Failed() {
		return
	}
	if want := 2*150 + 10*2; len(glsns) != want {
		t.Fatalf("%d glsns acked, want %d", len(glsns), want)
	}
	seen := make(map[logmodel.GLSN]bool, len(glsns))
	for _, g := range glsns {
		if seen[g] {
			t.Fatalf("glsn %s acked twice", g)
		}
		seen[g] = true
		for id, node := range tc.nodes {
			if _, ok := node.Fragment(g); !ok {
				t.Fatalf("acked glsn %s has no fragment on %s", g, id)
			}
		}
	}
}

// TestAppenderAcksResolveOnce pins that every ack of a batch resolves
// exactly once, on success and on failure: each one's Done is closed,
// it carries its glsn or the batch's error, and the ack counter moves
// by one per record.
func TestAppenderAcksResolveOnce(t *testing.T) {
	tc := startCluster(t)
	ctx := testCtx(t)
	for _, tt := range []struct {
		name, id string
		register bool
	}{
		{"stored", "once-ok", true},
		{"refused by the sequencer", "once-refused", false},
	} {
		t.Run(tt.name, func(t *testing.T) {
			c := tc.client(t, "ap-"+tt.id, "T"+tt.id, ticket.OpWrite)
			if tt.register {
				if err := c.RegisterTicket(ctx); err != nil {
					t.Fatal(err)
				}
			}
			ap, err := c.NewAppender(ctx, AppendOptions{MaxBatchRecords: 8, Linger: time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			before := telemetry.M.Counter(telemetry.CtrIngestAcks).Value()
			const n = 30
			acks := appendAll(ctx, t, ap, 0, n)
			if err := ap.Close(ctx); err != nil {
				t.Fatal(err)
			}
			if got := telemetry.M.Counter(telemetry.CtrIngestAcks).Value() - before; got != n {
				t.Fatalf("%d acks resolved for %d records", got, n)
			}
			seen := make(map[logmodel.GLSN]bool)
			for i, ack := range acks {
				select {
				case <-ack.Done():
				default:
					t.Fatalf("ack %d unresolved after Close", i)
				}
				g, err := ack.Wait(ctx)
				switch {
				case tt.register && err != nil:
					t.Fatalf("ack %d failed: %v", i, err)
				case tt.register && seen[g]:
					t.Fatalf("ack %d repeats glsn %s", i, g)
				case !tt.register && (err == nil || g != 0):
					t.Fatalf("ack %d = %s, %v; want the refusal", i, g, err)
				}
				seen[g] = true
			}
		})
	}
}

// TestAppenderAppendAllocs bounds what staging a record costs: a
// batch's acks share one slab and one done channel, so Append
// allocates per batch, not per record. The Appender has no dispatcher,
// so only Append's own allocations count; sealed batches queue up.
func TestAppenderAppendAllocs(t *testing.T) {
	const batch = 64
	ctx := context.Background()
	ap := &Appender{
		opts:     AppendOptions{MaxBatchRecords: batch, Linger: time.Hour, MaxInflight: math.MaxInt32}.withDefaults(),
		ctx:      ctx,
		notifyCh: make(chan struct{}),
		wakeCh:   make(chan struct{}, 1),
	}
	rec := appendRecord(1)
	perBatch := testing.AllocsPerRun(20, func() {
		for i := 0; i < batch; i++ {
			if _, err := ap.Append(ctx, rec); err != nil {
				t.Fatal(err)
			}
		}
	})
	if perRecord := perBatch / batch; perRecord >= 1 {
		t.Fatalf("Append allocates %.2f objects per record (%.0f per batch of %d), want below 1", perRecord, perBatch, batch)
	}
}

// TestProposeCountsRefusalsPerPeer pins that a round counts refusing
// peers, not refusal messages: one peer that sends two refusals into a
// round's session before it starts is one refuser, and the honest
// majority still commits.
func TestProposeCountsRefusalsPerPeer(t *testing.T) {
	tc := startCluster(t)
	ctx := testCtx(t)
	c := tc.client(t, "u-flood", "TFLOOD", ticket.OpWrite)
	if err := c.RegisterTicket(ctx); err != nil {
		t.Fatal(err)
	}
	leaderID := tc.boot.Roster[0]
	hostile := tc.nodes[tc.boot.Roster[len(tc.boot.Roster)-1]]
	const session = "flood"
	for i := 0; i < 2; i++ {
		if err := hostile.mb.SendBody(ctx, leaderID, msgAgreeVote, "seq/"+session, &agreeVoteBody{Refused: "no"}); err != nil {
			t.Fatal(err)
		}
	}
	leader := tc.nodes[leaderID]
	first, err := leader.assignGLSNRange(ctx, session, "TFLOOD", 1)
	if errors.Is(err, ErrNoQuorum) {
		t.Fatalf("one peer's two refusals failed the round: %v", err)
	}
	if err != nil {
		t.Fatal(err)
	}
	if !leader.acl.HasGrant("TFLOOD", first) {
		t.Fatalf("round committed but %s not granted", first)
	}
}

// TestProposeIgnoresStaleVote pins that a round drops a well-formed
// vote that does not verify over its statement instead of counting it
// as its sender's refusal. Session names repeat across rounds, so such
// a vote can be a late one from an earlier round: here P1's valid vote
// over an earlier statement waits in the round's session, and P3 is
// down. Counted as P1's refusal, it would make two refusals of the one
// a four-node round can spare, and fail the round before P1's real vote
// arrived.
func TestProposeIgnoresStaleVote(t *testing.T) {
	tc := startCluster(t)
	ctx := testCtx(t)
	c := tc.client(t, "u-stale", "TSTALE", ticket.OpWrite)
	if err := c.RegisterTicket(ctx); err != nil {
		t.Fatal(err)
	}
	leaderID, voter, dead := tc.boot.Roster[0], tc.boot.Roster[1], tc.boot.Roster[3]
	const session = "glsnrange/1"
	stale := agreeVoteBody{Sig: ed25519.Sign(tc.boot.Signers[voter], glsnRangeStatement(0, 1, "TSTALE"))}
	if err := tc.nodes[voter].mb.SendBody(ctx, leaderID, msgAgreeVote, "seq/"+session, &stale); err != nil {
		t.Fatal(err)
	}
	if err := tc.nodes[dead].mb.Close(); err != nil {
		t.Fatal(err)
	}
	leader := tc.nodes[leaderID]
	first, err := leader.assignGLSNRange(ctx, session, "TSTALE", 1)
	if err != nil {
		t.Fatalf("a stale vote and one dead peer failed the round: %v", err)
	}
	if !leader.acl.HasGrant("TSTALE", first) {
		t.Fatalf("round committed but %s not granted", first)
	}
}
