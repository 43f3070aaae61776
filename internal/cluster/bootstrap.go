package cluster

import (
	"crypto/ed25519"
	"fmt"
	"io"

	"confaudit/internal/crypto/accumulator"
	"confaudit/internal/logmodel"
	"confaudit/internal/mathx"
	"confaudit/internal/ticket"
)

// Bootstrap holds the cluster-wide agreed material a deployment
// provisions out of band: node signing keys, the ticket issuer, and the
// accumulator parameters (which the paper requires to be "agreed upon in
// advance" by U and P).
type Bootstrap struct {
	// Roster is the node order (Roster[0] is the sequencer leader).
	Roster []string
	// Partition is the attribute partition.
	Partition *logmodel.Partition
	// Group is the shared commutative-crypto group.
	Group *mathx.Group
	// AccParams are the one-way accumulator parameters.
	AccParams *accumulator.Params
	// Issuer mints tickets. It is nil on restored node-side bootstraps
	// (nodes verify tickets with IssuerPub; only the issuing party holds
	// the private key).
	Issuer *ticket.Issuer
	// IssuerPub is the ticket verification key.
	IssuerPub ed25519.PublicKey
	// Signers holds each node's private Ed25519 statement key.
	Signers map[string]ed25519.PrivateKey
	// PeerKeys holds each node's public verification key.
	PeerKeys map[string]ed25519.PublicKey
	// FirstGLSN seeds the sequencer.
	FirstGLSN logmodel.GLSN
}

// Provisioning constants: the accumulator modulus size, and the glsn
// the sequencer starts from (the paper's first example glsn).
const (
	accBits   = 512
	firstGLSN = logmodel.GLSN(0x139aef78)
)

// NewBootstrap provisions a cluster over the partition's node roster.
func NewBootstrap(rng io.Reader, part *logmodel.Partition, group *mathx.Group) (*Bootstrap, error) {
	if part == nil || group == nil {
		return nil, fmt.Errorf("cluster: nil partition or group")
	}
	acc, err := accumulator.GenerateParams(rng, accBits)
	if err != nil {
		return nil, fmt.Errorf("cluster: accumulator params: %w", err)
	}
	iss, err := ticket.NewIssuer(rng)
	if err != nil {
		return nil, fmt.Errorf("cluster: ticket issuer key: %w", err)
	}
	b := &Bootstrap{
		Roster:    part.Nodes(),
		Partition: part,
		Group:     group,
		AccParams: acc,
		Issuer:    iss,
		IssuerPub: iss.Public(),
		Signers:   make(map[string]ed25519.PrivateKey),
		PeerKeys:  make(map[string]ed25519.PublicKey),
		FirstGLSN: firstGLSN,
	}
	for _, node := range b.Roster {
		pub, priv, err := ed25519.GenerateKey(rng)
		if err != nil {
			return nil, fmt.Errorf("cluster: signing key for %s: %w", node, err)
		}
		b.Signers[node] = priv
		b.PeerKeys[node] = pub
	}
	return b, nil
}

// NodeConfig assembles the Config for one roster node.
func (b *Bootstrap) NodeConfig(id string) Config {
	return Config{
		ID:           id,
		Roster:       append([]string(nil), b.Roster...),
		Partition:    b.Partition,
		Group:        b.Group,
		Signer:       b.Signers[id],
		PeerKeys:     b.PeerKeys,
		TicketIssuer: b.IssuerPub,
		AccParams:    b.AccParams,
		FirstGLSN:    b.FirstGLSN,
	}
}
