package evidence

import (
	"context"
	"fmt"
	"math/big"

	"confaudit/internal/crypto/blind"
	"confaudit/internal/transport"
)

// Message types of the Figure 7 three-way handshake.
const (
	msgPP = "evid.pp" // policy proposal, inviter -> candidate
	msgSC = "evid.sc" // service commitment, candidate -> inviter
	msgRE = "evid.re" // completed evidence, inviter -> candidate
)

type ppBody struct {
	Index        int       `json:"index"`
	Inviter      Pseudonym `json:"inviter"`
	InviterToken *big.Int  `json:"inviter_token"`
	PrevHash     []byte    `json:"prev_hash"`
	Proposal     string    `json:"proposal"`
}

type scBody struct {
	Joiner      Pseudonym `json:"joiner"`
	JoinerToken *big.Int  `json:"joiner_token"`
	Services    []string  `json:"services"`
	JoinerSig   *big.Int  `json:"joiner_sig"`
}

type reBody struct {
	InviterSig *big.Int `json:"inviter_sig"`
}

// Invite runs the inviter (P_y) role of the Figure 7 handshake: send the
// policy proposal, verify the candidate's credential and signature,
// countersign, and return the completed evidence piece. The caller
// appends the piece to the chain, after which the invite authority has
// passed to the joiner — inviting again would be detectable misconduct.
func Invite(ctx context.Context, mb *transport.Mailbox, session string, m *Member, chain *Chain, candidate, proposal string) (*Piece, error) {
	var prevHash []byte
	index := len(chain.Pieces)
	if index > 0 {
		tail := &chain.Pieces[index-1]
		if !tail.Joiner.Equal(m.Pseudonym()) {
			return nil, fmt.Errorf("%w: inviter does not hold the chain tail", ErrMisconduct)
		}
		prevHash = tail.Hash()
	}
	pp := ppBody{
		Index:        index,
		Inviter:      m.Pseudonym(),
		InviterToken: m.Token(),
		PrevHash:     prevHash,
		Proposal:     proposal,
	}
	if err := mb.SendBody(ctx, candidate, msgPP, session, pp); err != nil {
		return nil, err
	}

	msg, err := mb.ExpectFrom(ctx, candidate, msgSC, session)
	if err != nil {
		return nil, fmt.Errorf("evidence: awaiting service commitment: %w", err)
	}
	var sc scBody
	if err := transport.Unmarshal(msg.Payload, &sc); err != nil {
		return nil, err
	}
	piece := Piece{
		Index:        index,
		Inviter:      pp.Inviter,
		Joiner:       sc.Joiner,
		InviterToken: pp.InviterToken,
		JoinerToken:  sc.JoinerToken,
		Terms:        Terms{Proposal: proposal, Services: sc.Services},
		PrevHash:     prevHash,
		JoinerSig:    sc.JoinerSig,
	}
	// g(t) =? 1 and the joiner's signature over the piece body.
	sig, err := m.sign(piece.body())
	if err != nil {
		return nil, fmt.Errorf("evidence: countersigning: %w", err)
	}
	piece.InviterSig = sig
	if err := piece.Verify(m.ca); err != nil {
		return nil, fmt.Errorf("evidence: candidate commitment rejected: %w", err)
	}
	if err := mb.SendBody(ctx, candidate, msgRE, session, reBody{InviterSig: sig}); err != nil {
		return nil, err
	}
	return &piece, nil
}

// Join runs the candidate (P_x) role: receive the proposal, commit to
// services, sign, and await the completed evidence. Returns the piece
// proving membership (and, implicitly, the received invite authority).
func Join(ctx context.Context, mb *transport.Mailbox, session string, m *Member, inviter string, services []string) (*Piece, error) {
	msg, err := mb.ExpectFrom(ctx, inviter, msgPP, session)
	if err != nil {
		return nil, fmt.Errorf("evidence: awaiting policy proposal: %w", err)
	}
	var pp ppBody
	if err := transport.Unmarshal(msg.Payload, &pp); err != nil {
		return nil, err
	}
	// Verify the inviter's credential before committing (g(t) =? 1).
	if err := verifyToken(m.ca, pp.Inviter, pp.InviterToken); err != nil {
		return nil, err
	}
	piece := Piece{
		Index:        pp.Index,
		Inviter:      pp.Inviter,
		Joiner:       m.Pseudonym(),
		InviterToken: pp.InviterToken,
		JoinerToken:  m.Token(),
		Terms:        Terms{Proposal: pp.Proposal, Services: services},
		PrevHash:     pp.PrevHash,
	}
	sig, err := m.sign(piece.body())
	if err != nil {
		return nil, fmt.Errorf("evidence: signing commitment: %w", err)
	}
	piece.JoinerSig = sig
	sc := scBody{
		Joiner:      piece.Joiner,
		JoinerToken: piece.JoinerToken,
		Services:    services,
		JoinerSig:   sig,
	}
	if err := mb.SendBody(ctx, inviter, msgSC, session, sc); err != nil {
		return nil, err
	}

	msg, err = mb.ExpectFrom(ctx, inviter, msgRE, session)
	if err != nil {
		return nil, fmt.Errorf("evidence: awaiting completed evidence: %w", err)
	}
	var re reBody
	if err := transport.Unmarshal(msg.Payload, &re); err != nil {
		return nil, err
	}
	piece.InviterSig = re.InviterSig
	if err := piece.Verify(m.ca); err != nil {
		return nil, fmt.Errorf("evidence: inviter completion rejected: %w", err)
	}
	return &piece, nil
}

func verifyToken(ca blind.PublicKey, p Pseudonym, token *big.Int) error {
	if err := blind.Verify(ca, p.Bytes(), token); err != nil {
		return fmt.Errorf("%w: %v", ErrBadToken, err)
	}
	return nil
}
