package cluster

import (
	"testing"

	"confaudit/internal/logmodel"
	"confaudit/internal/ticket"
)

// TestWitnessesSurviveSegmentRestart logs records (whose writers ship
// per-node membership witnesses), restarts the whole cluster from the
// segment store, and verifies every node re-pins its witnesses: each
// restored fragment still verifies against its witness and the record
// digest with one local exponentiation — the O(delta) restart re-pin
// the amortized-witness design promises.
func TestWitnessesSurviveSegmentRestart(t *testing.T) {
	root := t.TempDir()
	ctx := testCtx(t)

	tc, stop := durableCluster(t, root)
	c := tc.client(t, "wit-u", "TWIT", ticket.OpWrite, ticket.OpRead, ticket.OpDelete)
	if err := c.RegisterTicket(ctx); err != nil {
		t.Fatal(err)
	}
	glsns, err := c.LogBatch(ctx, []map[logmodel.Attr]logmodel.Value{
		{"id": logmodel.String("W1"), "C1": logmodel.Int(1)},
		{"id": logmodel.String("W2"), "C1": logmodel.Int(2)},
		{"id": logmodel.String("W3"), "C1": logmodel.Int(3)},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Witnesses are installed on append, before any restart.
	for id, node := range tc.nodes {
		for _, g := range glsns {
			if _, ok := node.Witness(g); !ok {
				t.Fatalf("node %s has no witness for %s before restart", id, g)
			}
		}
	}
	if err := c.Delete(ctx, glsns[2]); err != nil {
		t.Fatal(err)
	}
	stop()

	tc2, stop2 := durableCluster(t, root)
	defer stop2()
	boot := tc2.boot
	for id, node := range tc2.nodes {
		for _, g := range glsns[:2] {
			w, ok := node.Witness(g)
			if !ok {
				t.Fatalf("node %s lost its witness for %s across restart", id, g)
			}
			digest, ok := node.Digest(g)
			if !ok {
				t.Fatalf("node %s lost its digest for %s across restart", id, g)
			}
			frag, ok := node.Fragment(g)
			if !ok {
				t.Fatalf("node %s lost its fragment for %s across restart", id, g)
			}
			if !boot.AccParams.VerifyWitness(digest, w, frag.Canonical()) {
				t.Fatalf("node %s: restored witness for %s does not verify", id, g)
			}
		}
		// The deleted record's witness stayed deleted.
		if _, ok := node.Witness(glsns[2]); ok {
			t.Fatalf("node %s resurrected the witness of deleted %s", id, glsns[2])
		}
	}
}
