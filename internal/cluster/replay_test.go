package cluster

import (
	"crypto/ed25519"
	"fmt"
	"testing"
	"time"

	"confaudit/internal/logmodel"
	"confaudit/internal/ticket"
)

// indexProbe is one attribute value whose index lookup a snapshot
// records.
type indexProbe struct {
	attr logmodel.Attr
	val  logmodel.Value
}

// recordItems returns a record's fragments as the accumulator hashes
// them, in partition node order: AccumulateAll of them is the record
// digest by definition.
func recordItems(c *Client, rec logmodel.Record) [][]byte {
	frags := c.part.Split(rec)
	nodes := c.part.Nodes()
	items := make([][]byte, 0, len(nodes))
	for _, node := range nodes {
		items = append(items, frags[node].Canonical())
	}
	return items
}

// stateSnapshot renders what every node answers about each glsn — its
// fragment, digest (X0 to the held digest exponent) and provenance —
// plus the index lookup of every probe.
func stateSnapshot(tc *testCluster, gs []logmodel.GLSN, probes []indexProbe) map[string]string {
	out := make(map[string]string)
	for id, n := range tc.nodes {
		for _, g := range gs {
			key := id + "/" + g.String() + "/"
			if f, ok := n.Fragment(g); ok {
				out[key+"frag"] = fmt.Sprint(f)
			}
			if d, ok := n.Digest(g); ok {
				out[key+"digest"] = d.String()
			}
			if p, ok := n.Provenance(g); ok {
				out[key+"prov"] = fmt.Sprintf("%x", p)
			}
		}
		for _, p := range probes {
			hits, ok := n.IndexLookup(p.attr, p.val)
			out[fmt.Sprintf("%s/index/%s=%v", id, p.attr, p.val)] = fmt.Sprint(ok, hits)
		}
	}
	return out
}

// diffSnapshots reports every answer on which got differs from the live
// snapshot want.
func diffSnapshots(t *testing.T, label string, want, got map[string]string) {
	t.Helper()
	bad := 0
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s: %s: live %q, got %q", label, k, v, got[k])
			bad++
		}
	}
	for k, v := range got {
		if _, ok := want[k]; !ok {
			t.Errorf("%s: %s: absent live, got %q", label, k, v)
			bad++
		}
	}
	if bad > 0 {
		t.Errorf("%s: %d of %d answers differ from live", label, bad, len(want))
	}
}

// TestReplayMatchesLiveState writes every kind of fragment mutation to a
// durable cluster: unsigned Appender records, signed overwrites and a
// signed LogBatch (with provenance) from a second client on the same
// ticket built with a Signer, an unsigned overwrite of a signed record,
// and deletes. Live, every node's digest must match the record
// content it holds, and the unsigned overwrite must drop the old
// content's provenance. A restart from the segment stores must then
// reproduce every node's answers exactly, and so must a second restart
// after every node compacted its store into a snapshot.
func TestReplayMatchesLiveState(t *testing.T) {
	root := t.TempDir()
	ctx := testCtx(t)
	tc, stop := durableCluster(t, root)
	c := tc.client(t, "replay-u", "TRPL", ticket.OpWrite, ticket.OpRead, ticket.OpDelete)
	if err := c.RegisterTicket(ctx); err != nil {
		t.Fatal(err)
	}
	current := make(map[logmodel.GLSN]map[logmodel.Attr]logmodel.Value)
	var probes []indexProbe
	wrote := func(g logmodel.GLSN, values map[logmodel.Attr]logmodel.Value) {
		current[g] = values
		for a, v := range values {
			probes = append(probes, indexProbe{a, v})
		}
	}

	ap, err := c.NewAppender(ctx, AppendOptions{MaxBatchRecords: 4, Linger: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	const n = 12
	acks := make([]*Ack, n)
	for i := range acks {
		if acks[i], err = ap.Append(ctx, appendRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := ap.Close(ctx); err != nil {
		t.Fatal(err)
	}
	gs := make([]logmodel.GLSN, n)
	for i, ack := range acks {
		if gs[i], err = ack.GLSN(); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		wrote(gs[i], appendRecord(i))
	}
	// Materialize some lazy elements live, so an overwrite has cached
	// state to drop.
	for _, node := range tc.nodes {
		node.Digest(gs[2])
		node.Digest(gs[6])
	}

	_, signer, err := ed25519.GenerateKey(nil)
	if err != nil {
		t.Fatal(err)
	}
	sc := tc.openClient(t, "replay-s", ClientConfig{Ticket: c.tk, Signer: signer})
	over := []map[logmodel.Attr]logmodel.Value{appendRecord(100), appendRecord(101), appendRecord(102), appendRecord(103)}
	if _, err := sc.storeRange(ctx, gs[0], over, AppendOptions{}.withDefaults()); err != nil {
		t.Fatalf("signed overwrite: %v", err)
	}
	for i, values := range over {
		wrote(gs[i], values)
	}
	signedNew := []map[logmodel.Attr]logmodel.Value{appendRecord(300), appendRecord(301)}
	sgs, err := sc.LogBatch(ctx, signedNew)
	if err != nil {
		t.Fatalf("signed LogBatch: %v", err)
	}
	for i, g := range sgs {
		wrote(g, signedNew[i])
	}
	all := append(append([]logmodel.GLSN(nil), gs...), sgs...)

	// An unsigned overwrite of a signed record: neither the digest element
	// nor the provenance of the old content may survive it.
	if _, err := c.storeRange(ctx, gs[2], []map[logmodel.Attr]logmodel.Value{appendRecord(200)}, AppendOptions{}.withDefaults()); err != nil {
		t.Fatalf("unsigned overwrite: %v", err)
	}
	wrote(gs[2], appendRecord(200))
	for _, g := range []logmodel.GLSN{gs[1], gs[5]} {
		if err := c.Delete(ctx, g); err != nil {
			t.Fatal(err)
		}
		delete(current, g)
	}

	for g, values := range current {
		want := c.acc.AccumulateAll(recordItems(c, logmodel.Record{GLSN: g, Values: values}))
		for id, node := range tc.nodes {
			if d, ok := node.Digest(g); !ok || d.Cmp(want) != 0 {
				t.Fatalf("%s: live digest of %s does not match its content", id, g)
			}
		}
	}
	for id, node := range tc.nodes {
		if _, ok := node.Provenance(gs[2]); ok {
			t.Fatalf("%s: provenance of %s survived an unsigned overwrite", id, gs[2])
		}
	}
	live := stateSnapshot(tc, all, probes)
	stop()

	tc2, stop2 := durableCluster(t, root)
	diffSnapshots(t, "replayed", live, stateSnapshot(tc2, all, probes))
	for id, node := range tc2.nodes {
		if err := node.CompactStorage(); err != nil {
			t.Errorf("%s: compacting: %v", id, err)
		}
	}
	stop2()

	tc3, stop3 := durableCluster(t, root)
	defer stop3()
	diffSnapshots(t, "replayed after compaction", live, stateSnapshot(tc3, all, probes))
}
