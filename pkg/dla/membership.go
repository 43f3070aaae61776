package dla

import (
	"context"
	"io"
	"math/big"

	"confaudit/internal/crypto/blind"
	"confaudit/internal/evidence"
)

// Membership vocabulary (paper §4.2) re-exported: anonymous blind
// credentials plus the PP/SC/RE join handshake and its evidence chain.
type (
	// CredentialAuthority issues blind membership credentials; it meters
	// admission without learning who joins.
	CredentialAuthority = blind.Authority
	// CredentialKey verifies the authority's blind credentials.
	CredentialKey = blind.PublicKey
	// Member is a prospective or admitted cluster member holding an
	// anonymous credential.
	Member = evidence.Member
	// EvidenceChain is the countersigned join history of a cluster.
	EvidenceChain = evidence.Chain
	// EvidencePiece is one countersigned invite in the chain.
	EvidencePiece = evidence.Piece
	// Misconduct names a member caught violating the join protocol.
	Misconduct = evidence.Misconduct
)

// NewCredentialAuthority creates a credential authority with bits-sized
// keys.
func NewCredentialAuthority(rng io.Reader, bits int) (*CredentialAuthority, error) {
	return blind.NewAuthority(rng, bits)
}

// NewMember obtains an anonymous credential from the authority's issue
// function (typically (*CredentialAuthority).SignBlinded).
func NewMember(rng io.Reader, bits int, ca CredentialKey, issue func(*big.Int) (*big.Int, error)) (*Member, error) {
	return evidence.NewMember(rng, bits, ca, issue)
}

// Invite runs the inviter's side of the PP/SC/RE handshake, returning
// the countersigned evidence piece to append to the chain.
func Invite(ctx context.Context, mb *Mailbox, session string, m *Member, chain *EvidenceChain, candidate, proposal string) (*EvidencePiece, error) {
	return evidence.Invite(ctx, mb, session, m, chain, candidate, proposal)
}

// Join runs the joiner's side of the PP/SC/RE handshake.
func Join(ctx context.Context, mb *Mailbox, session string, m *Member, inviter string, services []string) (*EvidencePiece, error) {
	return evidence.Join(ctx, mb, session, m, inviter, services)
}

// DetectDoubleInvite scans countersigned pieces for one inviter signing
// two invites — self-incriminating misconduct (nil when clean).
func DetectDoubleInvite(pieces []EvidencePiece) *Misconduct {
	return evidence.DetectDoubleInvite(pieces)
}
