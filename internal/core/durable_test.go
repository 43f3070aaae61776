package core

import (
	"testing"

	"confaudit/internal/logmodel"
	"confaudit/internal/ticket"
)

// TestDurableRedeploy deploys with a data directory, logs records,
// tears the whole deployment down, redeploys over the same directories
// with the same provisioning material, and audits the surviving state.
func TestDurableRedeploy(t *testing.T) {
	ex, err := logmodel.NewPaperExample()
	if err != nil {
		t.Fatal(err)
	}
	root := t.TempDir()
	ctx := testCtx(t)

	d1, err := Deploy(Options{Partition: ex.Partition, DataDir: root})
	if err != nil {
		t.Fatal(err)
	}
	material := d1.Bootstrap()
	user := connect(t, d1, "u-dur", "TDUR")
	for _, rec := range ex.Records {
		if _, err := user.Log(ctx, rec.Values); err != nil {
			t.Fatal(err)
		}
	}
	if err := d1.Close(); err != nil {
		t.Fatal(err)
	}

	// Redeploy with the same keys over the same journals.
	d2, err := Deploy(Options{Partition: ex.Partition, DataDir: root, Material: material})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close() //nolint:errcheck
	auditor := connect(t, d2, "aud-dur", "TAD", ticket.OpRead).Auditor()
	got, err := auditor.Query(ctx, `protocl = "UDP" AND id = "U1"`)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("query after redeploy = %v, want 2 records", got)
	}
	// Integrity state (digests) also survived.
	rep, err := d2.CheckIntegrity(ctx, "P0")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Checked != 5 || !rep.Clean() {
		t.Fatalf("integrity after redeploy: %+v", rep)
	}
}
