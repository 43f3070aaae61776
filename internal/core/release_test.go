package core

import (
	"crypto/ed25519"
	"runtime"
	"testing"
	"weak"

	"confaudit/internal/cluster"
	"confaudit/internal/logmodel"
)

// TestStoppedNodeReleasesRecords ingests signed records into a
// memory-only deployment, closes it while keeping the deployment handle
// (and so every Node) reachable, and requires that the memory holding
// a node's records is collected and that reads on the stopped node find
// nothing. A stopped node that still pinned its records would keep a
// closed cluster's state live beside the one a redeploy replays.
func TestStoppedNodeReleasesRecords(t *testing.T) {
	ex, err := logmodel.NewPaperExample()
	if err != nil {
		t.Fatal(err)
	}
	d, err := Deploy(Options{Partition: ex.Partition})
	if err != nil {
		t.Fatal(err)
	}
	_, signer, err := ed25519.GenerateKey(nil)
	if err != nil {
		t.Fatal(err)
	}
	ep, err := d.Network().Endpoint("u-rel")
	if err != nil {
		t.Fatal(err)
	}
	user, err := Connect(testCtx(t), ep, d.Bootstrap(), cluster.ClientConfig{Signer: signer}, "TREL")
	if err != nil {
		t.Fatal(err)
	}
	defer user.Close() //nolint:errcheck
	records := make([]map[logmodel.Attr]logmodel.Value, 0, 4*len(ex.Records))
	for range 4 {
		for _, rec := range ex.Records {
			records = append(records, rec.Values)
		}
	}
	gs, err := user.LogBatch(testCtx(t), records)
	if err != nil {
		t.Fatal(err)
	}
	node, _ := d.Node("P1")
	if held := node.GLSNs(); len(held) != len(gs) {
		t.Fatalf("P1 holds %d of %d records before Close", len(held), len(gs))
	}
	held := heldMemory(t, node, gs[0])
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.GC()
	if held.Value() != nil {
		t.Error("the memory holding the stopped node's records is still reachable")
	}
	if held := node.GLSNs(); len(held) != 0 {
		t.Errorf("stopped node lists %d glsns", len(held))
	}
	if _, ok := node.Fragment(gs[0]); ok {
		t.Errorf("stopped node returned a fragment for %s", gs[0])
	}
	runtime.KeepAlive(d)
}

// heldMemory returns a weak pointer into the memory holding g's record
// on node: the provenance signature is a slice of the record's held
// bytes, so the pointer names the allocation those bytes live in
// without keeping it reachable.
func heldMemory(t *testing.T, node *cluster.Node, g logmodel.GLSN) weak.Pointer[byte] {
	t.Helper()
	sig, ok := node.Provenance(g)
	if !ok {
		t.Fatalf("%s carries no provenance signature", g)
	}
	return weak.Make(&sig[0])
}
