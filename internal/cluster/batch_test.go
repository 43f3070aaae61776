package cluster

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"confaudit/internal/logmodel"
	"confaudit/internal/ticket"
	"confaudit/internal/transport"
)

// TestLogBatchRoundTrip writes a batch and reads every record back,
// checking the reserved glsns are contiguous and in input order.
func TestLogBatchRoundTrip(t *testing.T) {
	tc := startCluster(t)
	ctx := testCtx(t)
	c := tc.client(t, "batch-u", "TB", ticket.OpWrite, ticket.OpRead)
	if err := c.RegisterTicket(ctx); err != nil {
		t.Fatal(err)
	}
	records := make([]map[logmodel.Attr]logmodel.Value, 5)
	for i := range records {
		records[i] = map[logmodel.Attr]logmodel.Value{
			"id": logmodel.String("B" + string(rune('0'+i))),
			"C1": logmodel.Int(int64(100 + i)),
			"C2": logmodel.Float(float64(i) + 0.5),
		}
	}
	gs, err := c.LogBatch(ctx, records)
	if err != nil {
		t.Fatal(err)
	}
	if len(gs) != len(records) {
		t.Fatalf("got %d glsns for %d records", len(gs), len(records))
	}
	for i := 1; i < len(gs); i++ {
		if gs[i] != gs[i-1]+1 {
			t.Fatalf("glsns not contiguous: %v", gs)
		}
	}
	for i, g := range gs {
		rec, err := c.Read(ctx, g)
		if err != nil {
			t.Fatalf("reading batch record %d: %v", i, err)
		}
		if rec.Values["C1"].I != int64(100+i) || rec.Values["id"].S != records[i]["id"].S {
			t.Fatalf("record %d read back %v", i, rec.Values)
		}
	}
}

// TestLogBatchEmptyAndSingle covers the degenerate batch sizes; Log is
// the batch-of-one case.
func TestLogBatchEmptyAndSingle(t *testing.T) {
	tc := startCluster(t)
	ctx := testCtx(t)
	c := tc.client(t, "batch-e", "TBE", ticket.OpWrite, ticket.OpRead)
	if err := c.RegisterTicket(ctx); err != nil {
		t.Fatal(err)
	}
	gs, err := c.LogBatch(ctx, nil)
	if err != nil || gs != nil {
		t.Fatalf("empty batch: %v %v", gs, err)
	}
	g, err := c.Log(ctx, map[logmodel.Attr]logmodel.Value{"C1": logmodel.Int(1)})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := c.Read(ctx, g)
	if err != nil || rec.Values["C1"].I != 1 {
		t.Fatalf("batch-of-one read: %v %v", rec, err)
	}
}

// TestLogBatchSurvivesAdmissionRefusals drives LogBatch into node
// admission buckets far smaller than the run. A refusal must become
// backoff and retry inside the store round, never a failed call, and
// every returned glsn must read back with its content.
func TestLogBatchSurvivesAdmissionRefusals(t *testing.T) {
	tc := startClusterWithAdmission(t, AdmissionConfig{RecordsPerSec: 200, Burst: 16})
	ctx := testCtx(t)
	c := tc.client(t, "lb-adm", "TLBA", ticket.OpWrite, ticket.OpRead)
	if err := c.RegisterTicket(ctx); err != nil {
		t.Fatal(err)
	}
	rejected := func() (n int64) {
		for _, node := range tc.nodes {
			n += node.AdmissionStatus().Rejected
		}
		return n
	}
	var gs []logmodel.GLSN
	for call := 0; rejected() == 0; call++ {
		if call == 50 {
			t.Fatal("no admission refusal after 50 calls; overload was never exercised")
		}
		records := make([]map[logmodel.Attr]logmodel.Value, 8)
		for i := range records {
			records[i] = appendRecord(len(gs) + i)
		}
		got, err := c.LogBatch(ctx, records)
		if err != nil {
			t.Fatalf("LogBatch call %d: %v", call, err)
		}
		gs = append(gs, got...)
	}
	for i, g := range gs {
		rec, err := c.Read(ctx, g)
		if err != nil {
			t.Fatalf("record %d at %s: %v", i, g, err)
		}
		if rec.Values["C1"].I != int64(i) {
			t.Fatalf("record %d at %s reads back %v", i, g, rec.Values)
		}
	}
}

// TestLogBatchFailsBeyondAdmissionCapacity sends batches no node could
// ever admit: more records than its token bucket holds, and more bytes
// than its inflight cap. Each refusal is permanent, so LogBatch must
// fail at once rather than back off until its context ends.
func TestLogBatchFailsBeyondAdmissionCapacity(t *testing.T) {
	for _, tt := range []struct {
		name string
		cfg  AdmissionConfig
	}{
		{"records", AdmissionConfig{RecordsPerSec: 200, Burst: 16}},
		{"bytes", AdmissionConfig{MaxInflightBytes: 512}},
	} {
		t.Run(tt.name, func(t *testing.T) {
			tc := startClusterWithAdmission(t, tt.cfg)
			c := tc.client(t, "lb-cap", "TLBC", ticket.OpWrite)
			if err := c.RegisterTicket(testCtx(t)); err != nil {
				t.Fatal(err)
			}
			records := make([]map[logmodel.Attr]logmodel.Value, 32)
			for i := range records {
				records[i] = appendRecord(i)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			_, err := c.LogBatch(ctx, records)
			if err == nil {
				t.Fatal("batch beyond admission capacity accepted")
			}
			if !strings.Contains(err.Error(), errExceedsCapacity.Error()) {
				t.Fatalf("got %v, want a permanent capacity refusal", err)
			}
		})
	}
}

// TestLogBatchRejectsOversize checks the sequencer bound.
func TestLogBatchRejectsOversize(t *testing.T) {
	tc := startCluster(t)
	ctx := testCtx(t)
	c := tc.client(t, "batch-o", "TBO", ticket.OpWrite)
	if err := c.RegisterTicket(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := c.RequestGLSNRange(ctx, maxGLSNBatch+1); err == nil {
		t.Fatal("oversize range accepted")
	}
}

// TestLogBatchWALReplay writes batches to a durable cluster, restarts
// it, and checks the group-committed grants and fragments replay: the
// range grant restores as individual grants, every record reads back,
// and the sequencer resumes past the range.
func TestLogBatchWALReplay(t *testing.T) {
	root := t.TempDir()
	ctx := testCtx(t)

	tc, stop := durableCluster(t, root)
	c := tc.client(t, "bwal-u", "TBW", ticket.OpWrite, ticket.OpRead)
	if err := c.RegisterTicket(ctx); err != nil {
		t.Fatal(err)
	}
	records := make([]map[logmodel.Attr]logmodel.Value, 4)
	for i := range records {
		records[i] = map[logmodel.Attr]logmodel.Value{"C1": logmodel.Int(int64(i))}
	}
	gs, err := c.LogBatch(ctx, records)
	if err != nil {
		t.Fatal(err)
	}
	stop()

	tc2, stop2 := durableCluster(t, root)
	defer stop2()
	ep, err := tc2.net.Endpoint("bwal-u")
	if err != nil {
		t.Fatal(err)
	}
	mb := transport.NewMailbox(ep)
	defer mb.Close() //nolint:errcheck
	tk, err := tc2.boot.Issuer.Issue("TBW", "bwal-u", ticket.OpWrite, ticket.OpRead)
	if err != nil {
		t.Fatal(err)
	}
	orig, err := OpenClient(mb, ClientConfig{Roster: tc2.boot.Roster, Partition: tc2.boot.Partition, Accumulator: tc2.boot.AccParams, Ticket: tk})
	if err != nil {
		t.Fatal(err)
	}
	for i, g := range gs {
		rec, err := orig.Read(ctx, g)
		if err != nil {
			t.Fatalf("batch record %d lost across restart: %v", i, err)
		}
		if rec.Values["C1"].I != int64(i) {
			t.Fatalf("record %d restored as %v", i, rec.Values)
		}
	}
	// New writes sequence past the replayed range.
	g2, err := orig.Log(ctx, map[logmodel.Attr]logmodel.Value{"C1": logmodel.Int(99)})
	if err != nil {
		t.Fatal(err)
	}
	if g2 <= gs[len(gs)-1] {
		t.Fatalf("sequencer reissued %s inside replayed range ending %s", g2, gs[len(gs)-1])
	}
}

// TestLogBatchCrashMidBatch simulates a node crashing in the middle of
// a batch group commit: the journal's final frame is torn. Restart must
// recover every intact entry of the batch and drop only the torn tail.
func TestLogBatchCrashMidBatch(t *testing.T) {
	root := t.TempDir()
	ctx := testCtx(t)

	tc, stop := durableCluster(t, root)
	c := tc.client(t, "crash-u", "TCR", ticket.OpWrite, ticket.OpRead)
	if err := c.RegisterTicket(ctx); err != nil {
		t.Fatal(err)
	}
	records := make([]map[logmodel.Attr]logmodel.Value, 3)
	for i := range records {
		records[i] = map[logmodel.Attr]logmodel.Value{
			"C1": logmodel.Int(int64(i)),
			"C2": logmodel.Float(float64(i)),
		}
	}
	gs, err := c.LogBatch(ctx, records)
	if err != nil {
		t.Fatal(err)
	}
	stop()

	// Tear the last journal frame on P3 (owner of C1) mid-frame: the
	// crash happened while the batch's final fragment entry was being
	// written.
	seg := activeSegment(t, filepath.Join(root, "P3"))
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	ends := segmentFrameEnds(t, data)
	if len(ends) < 2 || len(data)-20 <= ends[len(ends)-2] {
		t.Fatal("truncation point does not land inside the final frame")
	}
	if err := os.WriteFile(seg, data[:len(data)-20], 0o600); err != nil {
		t.Fatal(err)
	}

	tc2, stop2 := durableCluster(t, root)
	defer stop2()
	p3 := tc2.nodes["P3"]
	// All batch records but the torn last one survived on P3.
	for _, g := range gs[:len(gs)-1] {
		if _, ok := p3.Fragment(g); !ok {
			t.Fatalf("intact batch fragment %s lost to torn tail", g)
		}
	}
	if _, ok := p3.Fragment(gs[len(gs)-1]); ok {
		t.Fatal("torn final fragment resurrected")
	}
	if q := p3.QuarantinedExtents(); len(q) != 0 {
		t.Fatalf("torn tail must truncate, not quarantine: %v", q)
	}
	// The grant range itself was journaled before any fragment, so the
	// sequencer state is intact and new writes do not collide.
	ep, err := tc2.net.Endpoint("crash-u")
	if err != nil {
		t.Fatal(err)
	}
	mb := transport.NewMailbox(ep)
	defer mb.Close() //nolint:errcheck
	tk, err := tc2.boot.Issuer.Issue("TCR", "crash-u", ticket.OpWrite, ticket.OpRead)
	if err != nil {
		t.Fatal(err)
	}
	orig, err := OpenClient(mb, ClientConfig{Roster: tc2.boot.Roster, Partition: tc2.boot.Partition, Accumulator: tc2.boot.AccParams, Ticket: tk})
	if err != nil {
		t.Fatal(err)
	}
	g2, err := orig.Log(ctx, map[logmodel.Attr]logmodel.Value{"C1": logmodel.Int(7)})
	if err != nil {
		t.Fatal(err)
	}
	if g2 <= gs[len(gs)-1] {
		t.Fatalf("sequencer reissued %s inside batch range ending %s", g2, gs[len(gs)-1])
	}
}
