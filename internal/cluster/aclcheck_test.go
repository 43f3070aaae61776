package cluster

import (
	"testing"

	"confaudit/internal/logmodel"
	"confaudit/internal/ticket"
	"confaudit/internal/transport"
)

func TestACLConsistencyCleanCluster(t *testing.T) {
	tc := startCluster(t)
	ctx := testCtx(t)
	c := tc.client(t, "acl-u", "TACL", ticket.OpWrite)
	if err := c.RegisterTicket(ctx); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := c.Log(ctx, map[logmodel.Attr]logmodel.Value{"C1": logmodel.Int(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	report, err := tc.nodes["P0"].ACLConsistencyCheck(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !report.Consistent {
		t.Fatalf("clean cluster reported inconsistent: %+v", report.Verdicts)
	}
	if len(report.Verdicts) != 4 {
		t.Fatalf("verdicts from %d nodes, want 4", len(report.Verdicts))
	}
	for node, v := range report.Verdicts {
		if !v.OK || v.OwnSize != v.CommonSize {
			t.Fatalf("node %s verdict %+v", node, v)
		}
		// 4 grants expected per node.
		if v.OwnSize != 4 {
			t.Fatalf("node %s has %d ACL elements, want 4", node, v.OwnSize)
		}
	}
}

// TestACLConsistencyDetectsDivergence simulates a compromised node
// granting itself an extra glsn: the §4.1 secure-set-intersection check
// pinpoints that its table no longer matches the common set.
func TestACLConsistencyDetectsDivergence(t *testing.T) {
	tc := startCluster(t)
	ctx := testCtx(t)
	c := tc.client(t, "acl-v", "TACLV", ticket.OpWrite)
	if err := c.RegisterTicket(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Log(ctx, map[logmodel.Attr]logmodel.Value{"C1": logmodel.Int(1)}); err != nil {
		t.Fatal(err)
	}
	// P2 forges an extra grant locally.
	if err := tc.nodes["P2"].AccessTable().Grant("TACLV", 0xdeadbeef, 1); err != nil {
		t.Fatal(err)
	}
	report, err := tc.nodes["P0"].ACLConsistencyCheck(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if report.Consistent {
		t.Fatal("diverged cluster reported consistent")
	}
	v := report.Verdicts["P2"]
	if v.OK || v.OwnSize != v.CommonSize+1 {
		t.Fatalf("P2 verdict %+v, want own = common+1", v)
	}
	// Honest nodes still match the common set.
	for _, node := range []string{"P0", "P1", "P3"} {
		if !report.Verdicts[node].OK {
			t.Fatalf("honest node %s flagged: %+v", node, report.Verdicts[node])
		}
	}
}

// TestRemoteACLCheck exercises the client-triggered consistency round.
func TestRemoteACLCheck(t *testing.T) {
	tc := startCluster(t)
	ctx := testCtx(t)
	c := tc.client(t, "racl-u", "TRACL", ticket.OpWrite)
	if err := c.RegisterTicket(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Log(ctx, map[logmodel.Attr]logmodel.Value{"C1": logmodel.Int(1)}); err != nil {
		t.Fatal(err)
	}
	ep, err := tc.net.Endpoint("racl-client")
	if err != nil {
		t.Fatal(err)
	}
	mb := transport.NewMailbox(ep)
	defer mb.Close() //nolint:errcheck
	rep, err := RequestACLCheck(ctx, mb, "P0", "racl-1")
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Consistent || len(rep.Verdicts) != 4 {
		t.Fatalf("report %+v", rep)
	}
}

func TestDeleteLifecycle(t *testing.T) {
	tc := startCluster(t)
	ctx := testCtx(t)
	full := tc.client(t, "del-u", "TDEL", ticket.OpWrite, ticket.OpRead, ticket.OpDelete)
	if err := full.RegisterTicket(ctx); err != nil {
		t.Fatal(err)
	}
	g, err := full.Log(ctx, map[logmodel.Attr]logmodel.Value{"id": logmodel.String("U1")})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := full.Read(ctx, g); err != nil {
		t.Fatal(err)
	}
	if err := full.Delete(ctx, g); err != nil {
		t.Fatalf("delete: %v", err)
	}
	if _, err := full.Read(ctx, g); err == nil {
		t.Fatal("read succeeded after delete")
	}
	if err := full.Delete(ctx, g); err == nil {
		t.Fatal("double delete succeeded")
	}
}

func TestDeleteRequiresDeleteOp(t *testing.T) {
	tc := startCluster(t)
	ctx := testCtx(t)
	wr := tc.client(t, "del-w", "TDW", ticket.OpWrite, ticket.OpRead)
	if err := wr.RegisterTicket(ctx); err != nil {
		t.Fatal(err)
	}
	g, err := wr.Log(ctx, map[logmodel.Attr]logmodel.Value{"id": logmodel.String("U2")})
	if err != nil {
		t.Fatal(err)
	}
	if err := wr.Delete(ctx, g); err == nil {
		t.Fatal("delete succeeded without the delete operation")
	}
	// The record is still there.
	if _, err := wr.Read(ctx, g); err != nil {
		t.Fatalf("record damaged by refused delete: %v", err)
	}
}

func TestDeleteForeignRecordRefused(t *testing.T) {
	tc := startCluster(t)
	ctx := testCtx(t)
	owner := tc.client(t, "del-o", "TDO", ticket.OpWrite)
	hostile := tc.client(t, "del-h", "TDH", ticket.OpWrite, ticket.OpDelete)
	if err := owner.RegisterTicket(ctx); err != nil {
		t.Fatal(err)
	}
	if err := hostile.RegisterTicket(ctx); err != nil {
		t.Fatal(err)
	}
	g, err := owner.Log(ctx, map[logmodel.Attr]logmodel.Value{"id": logmodel.String("U3")})
	if err != nil {
		t.Fatal(err)
	}
	if err := hostile.Delete(ctx, g); err == nil {
		t.Fatal("deleted a record granted to another ticket")
	}
}
