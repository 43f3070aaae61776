package chaos

import (
	"context"
	"testing"
	"time"

	"confaudit/internal/integrity"
	"confaudit/internal/ticket"
	"confaudit/internal/transport"
	"confaudit/internal/workload"
)

// TestRemoteIntegrityCheck drives the `dlactl check` path against a
// chaos cluster: an operator endpoint asks one node to sweep its whole
// store, and the report must come back promptly, clean, and covering
// every logged record.
func TestRemoteIntegrityCheck(t *testing.T) {
	c := startCluster(t, Options{Nodes: 3, Seed: 3})
	ctx := testCtx(t)
	cl, err := c.NewClient(ctx, "u0", "T1", ticket.OpWrite, ticket.OpRead)
	if err != nil {
		t.Fatal(err)
	}
	glsns, err := cl.LogBatch(ctx, workload.New(3).Transactions(c.Schema, 8, 4))
	if err != nil {
		t.Fatal(err)
	}

	ep, err := c.Net.Endpoint("operator")
	if err != nil {
		t.Fatal(err)
	}
	mb := transport.NewMailbox(ep)
	defer mb.Close() //nolint:errcheck
	checkCtx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	rep, err := integrity.RequestCheck(checkCtx, mb, c.Boot.Roster[1], "check/operator/1", nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Checked < len(glsns) || !rep.Clean() {
		t.Fatalf("report checked %d of %d records: corrupted=%v errors=%v", rep.Checked, len(glsns), rep.Corrupted, rep.Errors)
	}
}
