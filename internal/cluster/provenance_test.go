package cluster

import (
	"crypto/ed25519"
	"testing"

	"confaudit/internal/logmodel"
	"confaudit/internal/ticket"
)

// TestProvenanceNonRepudiation covers the §2 non-repudiation flow: a
// writer signs the record digest; every node stores the signature; the
// writer cannot later deny the record, and a forged signature fails.
func TestProvenanceNonRepudiation(t *testing.T) {
	tc := startCluster(t)
	ctx := testCtx(t)
	writerPub, writerKey, err := ed25519.GenerateKey(nil)
	if err != nil {
		t.Fatal(err)
	}
	tk, err := tc.boot.Issuer.Issue("TPROV", "prov-u", ticket.OpWrite)
	if err != nil {
		t.Fatal(err)
	}
	c := tc.openClient(t, "prov-u", ClientConfig{Ticket: tk, Signer: writerKey})
	if err := c.RegisterTicket(ctx); err != nil {
		t.Fatal(err)
	}
	g, err := c.Log(ctx, map[logmodel.Attr]logmodel.Value{
		"id": logmodel.String("U1"),
		"C2": logmodel.Float(345.11),
	})
	if err != nil {
		t.Fatal(err)
	}
	// Every node holds the signature and can verify it.
	for id, node := range tc.nodes {
		if _, ok := node.Provenance(g); !ok {
			t.Fatalf("node %s missing provenance", id)
		}
		if err := node.VerifyProvenance(g, writerPub); err != nil {
			t.Fatalf("node %s: %v", id, err)
		}
		// A different key does not verify: the signature pins the writer.
		other, _, err := ed25519.GenerateKey(nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := node.VerifyProvenance(g, other); err == nil {
			t.Fatalf("node %s accepted provenance under the wrong key", id)
		}
		// Nor does a truncated key, and it does not panic ed25519.
		if err := node.VerifyProvenance(g, writerPub[:ed25519.PublicKeySize-1]); err == nil {
			t.Fatalf("node %s accepted provenance under a 31-byte key", id)
		}
		break // one node suffices for the wrong-key case
	}
}

func TestProvenanceAbsentWithoutSigner(t *testing.T) {
	tc := startCluster(t)
	ctx := testCtx(t)
	c := tc.client(t, "noprov-u", "TNOPROV", ticket.OpWrite)
	if err := c.RegisterTicket(ctx); err != nil {
		t.Fatal(err)
	}
	g, err := c.Log(ctx, map[logmodel.Attr]logmodel.Value{"id": logmodel.String("U2")})
	if err != nil {
		t.Fatal(err)
	}
	node := tc.nodes["P0"]
	if _, ok := node.Provenance(g); ok {
		t.Fatal("provenance present without a signer")
	}
	if err := node.VerifyProvenance(g, make(ed25519.PublicKey, ed25519.PublicKeySize)); err == nil {
		t.Fatal("verification succeeded without a signature")
	}
}

func TestVerifyProvenanceUnknownGLSN(t *testing.T) {
	tc := startCluster(t)
	node := tc.nodes["P0"]
	if err := node.VerifyProvenance(0xffff, make(ed25519.PublicKey, ed25519.PublicKeySize)); err == nil {
		t.Fatal("unknown glsn verified")
	}
}
