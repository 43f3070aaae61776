package cluster

import (
	"bytes"
	"context"
	"crypto/ed25519"
	"errors"
	"testing"

	"confaudit/internal/ticket"
	"confaudit/internal/transport"
)

// TestFollowerComparesOwnVote pins how a follower checks its own entry
// in a commit certificate: against the vote it sent, byte for byte,
// instead of verifying the signature again. An entry that differs from
// the sent vote is refused, even one that verifies; a byte-identical
// entry is applied without a verify.
func TestFollowerComparesOwnVote(t *testing.T) {
	boot := sharedBootstrap(t)
	net := transport.NewMemNetwork()
	t.Cleanup(func() { net.Close() }) //nolint:errcheck
	self := boot.Roster[1]
	ep, err := net.Endpoint(self)
	if err != nil {
		t.Fatal(err)
	}
	n, err := New(boot.NodeConfig(self), transport.NewMailbox(ep))
	if err != nil {
		t.Fatal(err)
	}
	tk, err := boot.Issuer.Issue("TVOTE", "u-vote", ticket.OpWrite, ticket.OpRead)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.registerTicket(&ticketRegisterBody{Ticket: ToWire(tk)}); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	certFor := func(stmt, own []byte) *Certificate {
		return &Certificate{Statement: stmt, Votes: map[string][]byte{
			boot.Roster[0]: ed25519.Sign(boot.Signers[boot.Roster[0]], stmt),
			self:           own,
			boot.Roster[2]: ed25519.Sign(boot.Signers[boot.Roster[2]], stmt),
		}}
	}
	bogus := bytes.Repeat([]byte{1}, ed25519.SignatureSize)

	first := n.nextGLSN
	stmt := glsnRangeStatement(first, 2, tk.ID)
	sig := ed25519.Sign(boot.Signers[self], stmt)
	flipped := bytes.Clone(sig)
	flipped[5] ^= 0x10
	for name, c := range map[string]struct{ sent, entry []byte }{
		"entry differs from the sent vote":                 {sig, flipped},
		"entry verifies but is not the vote the node sent": {bogus, sig},
	} {
		n.votes.add(stmt, c.sent)
		if err := n.applyCommit(ctx, certFor(stmt, c.entry)); !errors.Is(err, ErrBadCertificate) {
			t.Fatalf("%s: applyCommit = %v, want ErrBadCertificate", name, err)
		}
		if n.acl.HasGrant(tk.ID, first) || n.nextGLSN != first {
			t.Fatalf("%s: refused statement applied", name)
		}
	}

	n.votes.add(stmt, sig)
	if err := n.applyCommit(ctx, certFor(stmt, bytes.Clone(sig))); err != nil {
		t.Fatalf("byte-identical entry refused: %v", err)
	}
	if !n.acl.HasGrant(tk.ID, first+1) || n.nextGLSN != first+2 {
		t.Fatal("certified statement not applied")
	}

	// The comparison stands in for the verify: an entry identical to
	// what the node remembers sending is not checked again.
	stmt = glsnRangeStatement(first+2, 1, tk.ID)
	n.votes.add(stmt, bogus)
	if err := n.applyCommit(ctx, certFor(stmt, bogus)); err != nil {
		t.Fatalf("entry identical to the sent vote refused: %v", err)
	}
	// With no vote remembered, the entry is verified like any other.
	stmt = glsnRangeStatement(first+3, 1, tk.ID)
	if err := n.applyCommit(ctx, certFor(stmt, bogus)); !errors.Is(err, ErrBadCertificate) {
		t.Fatalf("unremembered forged entry: applyCommit = %v, want ErrBadCertificate", err)
	}
	if err := n.applyCommit(ctx, certFor(stmt, ed25519.Sign(boot.Signers[self], stmt))); err != nil {
		t.Fatalf("unremembered valid entry refused: %v", err)
	}
	if n.nextGLSN != first+4 {
		t.Fatalf("next glsn %s, want %s", n.nextGLSN, first+4)
	}
}
