package cluster

import (
	"testing"

	"confaudit/internal/logmodel"
	"confaudit/internal/ticket"
)

// TestWitnessesSurviveSegmentRestart logs records (whose writers ship
// each record's digest exponent), deletes one, restarts the whole
// cluster from the segment store, and verifies that every node's
// restored Digest, X0 to the restored digest exponent, is the digest of
// the record as written, and that the deleted record's digest stays
// gone.
func TestWitnessesSurviveSegmentRestart(t *testing.T) {
	root := t.TempDir()
	ctx := testCtx(t)

	tc, stop := durableCluster(t, root)
	c := tc.client(t, "wit-u", "TWIT", ticket.OpWrite, ticket.OpRead, ticket.OpDelete)
	if err := c.RegisterTicket(ctx); err != nil {
		t.Fatal(err)
	}
	records := []map[logmodel.Attr]logmodel.Value{
		{"id": logmodel.String("W1"), "C1": logmodel.Int(1)},
		{"id": logmodel.String("W2"), "C1": logmodel.Int(2)},
		{"id": logmodel.String("W3"), "C1": logmodel.Int(3)},
	}
	glsns, err := c.LogBatch(ctx, records)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Delete(ctx, glsns[2]); err != nil {
		t.Fatal(err)
	}
	stop()

	tc2, stop2 := durableCluster(t, root)
	defer stop2()
	for i, g := range glsns[:2] {
		want := c.acc.AccumulateAll(recordItems(c, logmodel.Record{GLSN: g, Values: records[i]}))
		for id, node := range tc2.nodes {
			if digest, ok := node.Digest(g); !ok || digest.Cmp(want) != 0 {
				t.Fatalf("node %s: restored digest for %s is not the digest of the record as written (held %v)", id, g, ok)
			}
		}
	}
	for id, node := range tc2.nodes {
		if _, ok := node.Digest(glsns[2]); ok {
			t.Fatalf("node %s resurrected the digest of deleted %s", id, glsns[2])
		}
	}
}
