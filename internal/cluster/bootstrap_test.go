package cluster

import (
	"crypto/ed25519"
	"crypto/rand"
	"testing"

	"confaudit/internal/logmodel"
	"confaudit/internal/mathx"
)

// BenchmarkNewBootstrap measures one deploy's key material: the
// accumulator parameters, the ticket issuer key and one statement key
// per node of the paper's 4-node example.
func BenchmarkNewBootstrap(b *testing.B) {
	ex, err := logmodel.NewPaperExample()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := NewBootstrap(rand.Reader, ex.Partition, mathx.Oakley768); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVerifyCertificate measures a follower's check of one commit:
// a 3-vote certificate, the quorum of the 4-node roster, one of whose
// votes is the follower's own, compared rather than verified.
func BenchmarkVerifyCertificate(b *testing.B) {
	boot := sharedBootstrap(b)
	stmt := glsnRangeStatement(0x139aef78, 126, "T1")
	cert := &Certificate{Statement: stmt, Votes: map[string][]byte{}}
	for _, id := range boot.Roster[:3] {
		cert.Votes[id] = ed25519.Sign(boot.Signers[id], stmt)
	}
	quorum := Quorum(len(boot.Roster))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := verifyCertificate(boot.PeerKeys, quorum, cert, boot.Roster[1], cert.Votes[boot.Roster[1]]); err != nil {
			b.Fatal(err)
		}
	}
}
