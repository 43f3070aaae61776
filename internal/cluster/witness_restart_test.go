package cluster

import (
	"testing"

	"confaudit/internal/crypto/accumulator"
	"confaudit/internal/integrity"
	"confaudit/internal/logmodel"
	"confaudit/internal/ticket"
)

// TestWitnessesSurviveSegmentRestart logs records (whose writers ship
// each record's digest exponent), restarts the whole cluster from the
// segment store, and verifies that every node's local integrity check
// still stands: each restored fragment's hash exponent divides the
// restored digest exponent, whose group element is the record digest.
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
	// Digest exponents are installed on append, before any restart.
	for id, node := range tc.nodes {
		for _, g := range glsns {
			if _, ok := node.DigestExp(g); !ok {
				t.Fatalf("node %s has no digest exponent for %s before restart", id, g)
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
			dexp, ok := node.DigestExp(g)
			if !ok {
				t.Fatalf("node %s lost its digest exponent for %s across restart", id, g)
			}
			digest, ok := node.Digest(g)
			if !ok || digest.Cmp(boot.AccParams.PowX0(dexp)) != 0 {
				t.Fatalf("node %s: restored digest for %s is not X0^dexp (held %v)", id, g, ok)
			}
			frag, ok := node.Fragment(g)
			if !ok || !accumulator.Member(dexp, frag.Canonical()) {
				t.Fatalf("node %s: restored fragment of %s does not divide its digest exponent (held %v)", id, g, ok)
			}
			// The local check judges only fragments with values; the
			// others' are empty, and circulation judges them.
			if len(frag.Values) > 0 {
				if err := integrity.CheckLocal(node, g); err != nil {
					t.Fatalf("node %s: restored record %s: %v", id, g, err)
				}
			}
		}
		// The deleted record's exponent stayed deleted.
		if _, ok := node.DigestExp(glsns[2]); ok {
			t.Fatalf("node %s resurrected the digest exponent of deleted %s", id, glsns[2])
		}
	}
}
