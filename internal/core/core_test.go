package core

import (
	"context"
	"testing"
	"time"

	"confaudit/internal/audit"
	"confaudit/internal/cluster"
	"confaudit/internal/logmodel"
	"confaudit/internal/ticket"
	"confaudit/internal/workload"
)

func deploy(t *testing.T) *Deployment {
	t.Helper()
	ex, err := logmodel.NewPaperExample()
	if err != nil {
		t.Fatal(err)
	}
	d, err := Deploy(Options{Partition: ex.Partition})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() }) //nolint:errcheck
	return d
}

func testCtx(t *testing.T) context.Context {
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	t.Cleanup(cancel)
	return ctx
}

// connect attaches a client to d under a fresh ticket (read and write
// unless ops say otherwise) and closes it when the test ends.
func connect(t *testing.T, d *Deployment, id, ticketID string, ops ...ticket.Op) *Client {
	t.Helper()
	ep, err := d.Network().Endpoint(id)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Connect(testCtx(t), ep, d.Bootstrap(), cluster.ClientConfig{}, ticketID, ops...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() }) //nolint:errcheck
	return c
}

// TestFullSystemEndToEnd is the headline integration test: deploy the
// Figure 2 architecture, log the Table 1 records, run a confidential
// audit, verify integrity, detect tampering.
func TestFullSystemEndToEnd(t *testing.T) {
	d := deploy(t)
	ctx := testCtx(t)
	ex, err := logmodel.NewPaperExample()
	if err != nil {
		t.Fatal(err)
	}
	user := connect(t, d, "u0", "T1")
	var glsns []logmodel.GLSN
	for _, rec := range ex.Records {
		g, err := user.Log(ctx, rec.Values)
		if err != nil {
			t.Fatal(err)
		}
		glsns = append(glsns, g)
	}

	auditor := connect(t, d, "aud", "TA", ticket.OpRead).Auditor()
	got, err := auditor.Query(ctx, `protocl = "UDP" AND id = "U1"`)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("query returned %v, want 2 records", got)
	}
	total, err := auditor.Aggregate(ctx, `Tid = "T1100265"`, audit.AggSum, "C2")
	if err != nil {
		t.Fatal(err)
	}
	want := 23.45 + 345.11 + 45.02
	if diff := total - want; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("aggregate = %v, want %v", total, want)
	}

	// Integrity sweep is clean.
	rep, err := d.CheckIntegrity(ctx, "P0")
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() || rep.Checked != len(glsns) {
		t.Fatalf("integrity report not clean: %+v", rep)
	}

	// A compromised node alters one fragment; the sweep catches it.
	p2, _ := d.Node("P2")
	if !p2.TamperFragment(glsns[1], "C3", logmodel.String("forged")) {
		t.Fatal("tamper failed")
	}
	rep, err = d.CheckIntegrity(ctx, "P0")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Clean() || len(rep.Corrupted) != 1 || rep.Corrupted[0] != glsns[1] {
		t.Fatalf("tampering not localized: %+v", rep)
	}
}

func TestDeployValidation(t *testing.T) {
	if _, err := Deploy(Options{}); err == nil {
		t.Fatal("nil partition accepted")
	}
}

func TestNewUserCustomOps(t *testing.T) {
	d := deploy(t)
	ctx := testCtx(t)
	// Read-only user cannot obtain a glsn.
	ro := connect(t, d, "ro", "TRO", ticket.OpRead)
	if _, err := ro.RequestGLSNRange(ctx, 1); err == nil {
		t.Fatal("read-only user obtained a glsn")
	}
}

func TestUnknownNodeIntegrityCheck(t *testing.T) {
	d := deploy(t)
	ctx := testCtx(t)
	if _, err := d.CheckIntegrity(ctx, "PX"); err == nil {
		t.Fatal("unknown node accepted")
	}
}

func TestRosterAndAccessors(t *testing.T) {
	d := deploy(t)
	roster := d.Roster()
	if len(roster) != 4 || roster[0] != "P0" {
		t.Fatalf("roster = %v", roster)
	}
	if _, ok := d.Node("P3"); !ok {
		t.Fatal("P3 missing")
	}
	if _, ok := d.Node("PX"); ok {
		t.Fatal("phantom node present")
	}
	if d.Bootstrap() == nil {
		t.Fatal("nil bootstrap")
	}
}

// TestGeneratedWorkloadDeployment runs the system over a wider generated
// partition to confirm nothing is specific to the paper's 4-node layout.
func TestGeneratedWorkloadDeployment(t *testing.T) {
	schema, err := workload.ECommerceSchema(4)
	if err != nil {
		t.Fatal(err)
	}
	part, err := workload.RoundRobinPartition(schema, 3)
	if err != nil {
		t.Fatal(err)
	}
	d, err := Deploy(Options{Partition: part})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close() //nolint:errcheck
	ctx := testCtx(t)
	user := connect(t, d, "gen-user", "TG")
	recs := workload.New(11).Transactions(schema, 20, 4)
	for _, vals := range recs {
		if _, err := user.Log(ctx, vals); err != nil {
			t.Fatal(err)
		}
	}
	auditor := connect(t, d, "gen-aud", "TGA", ticket.OpRead).Auditor()
	n, err := auditor.Aggregate(ctx, "*", audit.AggCount, "")
	if err != nil {
		t.Fatal(err)
	}
	if n != 20 {
		t.Fatalf("count = %v, want 20", n)
	}
	// Every query in the standard mix executes.
	for _, criteria := range workload.QueryMix(4) {
		if _, err := auditor.Query(ctx, criteria); err != nil {
			t.Fatalf("criteria %q: %v", criteria, err)
		}
	}
}
