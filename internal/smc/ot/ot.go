// Package ot implements 1-of-2 oblivious transfer in the Bellare-Micali
// style over a safe-prime group: the receiver learns exactly one of the
// sender's two messages per index, the sender learns nothing about which.
//
// This is the substrate of the classical zero-disclosure SMC baseline
// (Yao [10] / GMW [11] in the paper's related work) that the paper argues
// is too expensive for practical auditing. We implement it so the
// relaxed-vs-classical cost gap can be measured rather than asserted.
//
// Protocol (per index i):
//
//	sender:   samples s, publishes c = g^s (dlog unknown to receiver)
//	receiver: picks x, sets PK_b = g^x, sends PK_0 = PK_b or c/PK_b
//	          so that the sender can derive PK_1 = c/PK_0
//	sender:   picks r_0, r_1, sends V_j = g^{r_j},
//	          E_j = m_j XOR H(PK_j^{r_j})
//	receiver: recovers m_b = E_b XOR H(V_b^x)
//
// The receiver knows the discrete log of exactly one public key, so it
// can decrypt exactly one branch; the two public keys are identically
// distributed, so the sender cannot tell b.
package ot

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/big"

	"confaudit/internal/mathx"
	"confaudit/internal/smc"
	"confaudit/internal/transport"
)

// Message types on the wire.
const (
	msgParams = "ot.params"
	msgPK     = "ot.pk"
	msgEnc    = "ot.enc"
)

// Config describes one batched OT run between a sender and a receiver.
type Config struct {
	// Group is the shared DH group.
	Group *mathx.Group
	// Sender and Receiver are the two node IDs.
	Sender   string
	Receiver string
	// Session disambiguates concurrent runs.
	Session string
}

func (c *Config) validate() error {
	if c.Group == nil {
		return fmt.Errorf("%w: nil group", smc.ErrProtocol)
	}
	if c.Sender == "" || c.Receiver == "" || c.Sender == c.Receiver {
		return fmt.Errorf("%w: need distinct sender and receiver", smc.ErrProtocol)
	}
	if c.Session == "" {
		return fmt.Errorf("%w: empty session", smc.ErrProtocol)
	}
	return nil
}

// generator derives the common group generator g deterministically from
// the group, so both sides agree without negotiation. Hashing into the
// QR subgroup yields an element of prime order q.
func generator(g *mathx.Group) *big.Int {
	return g.HashToQR([]byte("confaudit/ot generator v1"))
}

type paramsBody struct {
	C string `json:"c"`
}

type pkBody struct {
	PK0s []string `json:"pk0s"`
}

type encBody struct {
	V0s []string `json:"v0s"`
	E0s [][]byte `json:"e0s"`
	V1s []string `json:"v1s"`
	E1s [][]byte `json:"e1s"`
}

// kdf stretches a shared group element into a pad of the given length.
func kdf(elem *big.Int, index int, branch byte, n int) []byte {
	seed := elem.Bytes()
	out := make([]byte, 0, n+sha256.Size)
	var ctr uint32
	for len(out) < n {
		h := sha256.New()
		var hdr [9]byte
		binary.BigEndian.PutUint32(hdr[0:4], uint32(index))
		hdr[4] = branch
		binary.BigEndian.PutUint32(hdr[5:9], ctr)
		h.Write(hdr[:])
		h.Write(seed)
		out = h.Sum(out)
		ctr++
	}
	return out[:n]
}

func xorInto(dst, pad []byte) {
	for i := range dst {
		dst[i] ^= pad[i]
	}
}

// Send performs the sender role for a batch: pairs[i] holds the two
// candidate messages for index i. Both messages in a pair must have the
// same length.
func Send(ctx context.Context, mb *transport.Mailbox, cfg Config, pairs [][2][]byte) error {
	if err := cfg.validate(); err != nil {
		return err
	}
	for i, p := range pairs {
		if len(p[0]) != len(p[1]) {
			return fmt.Errorf("%w: pair %d has mismatched message lengths", smc.ErrProtocol, i)
		}
	}
	grp := cfg.Group
	g := generator(grp)
	s, err := mathx.RandScalar(nil, grp.Q)
	if err != nil {
		return fmt.Errorf("ot: sampling c exponent: %w", err)
	}
	c := new(big.Int).Exp(g, s, grp.P)
	if err := mb.SendBody(ctx, cfg.Receiver, msgParams, cfg.Session, paramsBody{C: smc.EncodeBig(c)}); err != nil {
		return err
	}

	msg, err := mb.ExpectFrom(ctx, cfg.Receiver, msgPK, cfg.Session)
	if err != nil {
		return fmt.Errorf("ot: awaiting public keys: %w", err)
	}
	var pks pkBody
	if err := transport.Unmarshal(msg.Payload, &pks); err != nil {
		return err
	}
	if len(pks.PK0s) != len(pairs) {
		return fmt.Errorf("%w: got %d public keys for %d pairs", smc.ErrProtocol, len(pks.PK0s), len(pairs))
	}

	body := encBody{
		V0s: make([]string, len(pairs)),
		E0s: make([][]byte, len(pairs)),
		V1s: make([]string, len(pairs)),
		E1s: make([][]byte, len(pairs)),
	}
	cInv := new(big.Int)
	for i, pair := range pairs {
		pk0, err := smc.DecodeBig(pks.PK0s[i])
		if err != nil {
			return err
		}
		if pk0.Sign() <= 0 || pk0.Cmp(grp.P) >= 0 {
			return fmt.Errorf("%w: public key %d out of range", smc.ErrProtocol, i)
		}
		// PK1 = c / PK0.
		if cInv.ModInverse(pk0, grp.P) == nil {
			return fmt.Errorf("%w: non-invertible public key %d", smc.ErrProtocol, i)
		}
		pk1 := new(big.Int).Mul(c, cInv)
		pk1.Mod(pk1, grp.P)

		for branch, pk := range []*big.Int{pk0, pk1} {
			r, err := mathx.RandScalar(nil, grp.Q)
			if err != nil {
				return fmt.Errorf("ot: sampling r: %w", err)
			}
			v := new(big.Int).Exp(g, r, grp.P)
			shared := new(big.Int).Exp(pk, r, grp.P)
			e := append([]byte(nil), pair[branch]...)
			xorInto(e, kdf(shared, i, byte(branch), len(e)))
			if branch == 0 {
				body.V0s[i] = smc.EncodeBig(v)
				body.E0s[i] = e
			} else {
				body.V1s[i] = smc.EncodeBig(v)
				body.E1s[i] = e
			}
		}
	}
	return mb.SendBody(ctx, cfg.Receiver, msgEnc, cfg.Session, body)
}

// Receive performs the receiver role for a batch: choices[i] selects
// which of the sender's pair i messages to learn. Returns the chosen
// messages.
func Receive(ctx context.Context, mb *transport.Mailbox, cfg Config, choices []bool) ([][]byte, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	grp := cfg.Group
	g := generator(grp)

	msg, err := mb.ExpectFrom(ctx, cfg.Sender, msgParams, cfg.Session)
	if err != nil {
		return nil, fmt.Errorf("ot: awaiting params: %w", err)
	}
	var params paramsBody
	if err := transport.Unmarshal(msg.Payload, &params); err != nil {
		return nil, err
	}
	c, err := smc.DecodeBig(params.C)
	if err != nil {
		return nil, err
	}
	if c.Sign() <= 0 || c.Cmp(grp.P) >= 0 {
		return nil, fmt.Errorf("%w: c out of range", smc.ErrProtocol)
	}

	xs := make([]*big.Int, len(choices))
	pk0s := make([]string, len(choices))
	tmp := new(big.Int)
	for i, b := range choices {
		x, err := mathx.RandScalar(nil, grp.Q)
		if err != nil {
			return nil, fmt.Errorf("ot: sampling x: %w", err)
		}
		xs[i] = x
		pkb := new(big.Int).Exp(g, x, grp.P)
		if !b {
			pk0s[i] = smc.EncodeBig(pkb)
		} else {
			// PK0 = c / PK_b.
			if tmp.ModInverse(pkb, grp.P) == nil {
				return nil, fmt.Errorf("%w: degenerate key", smc.ErrProtocol)
			}
			pk0 := new(big.Int).Mul(c, tmp)
			pk0.Mod(pk0, grp.P)
			pk0s[i] = smc.EncodeBig(pk0)
		}
	}
	if err := mb.SendBody(ctx, cfg.Sender, msgPK, cfg.Session, pkBody{PK0s: pk0s}); err != nil {
		return nil, err
	}

	msg, err = mb.ExpectFrom(ctx, cfg.Sender, msgEnc, cfg.Session)
	if err != nil {
		return nil, fmt.Errorf("ot: awaiting ciphertexts: %w", err)
	}
	var enc encBody
	if err := transport.Unmarshal(msg.Payload, &enc); err != nil {
		return nil, err
	}
	if len(enc.V0s) != len(choices) || len(enc.V1s) != len(choices) ||
		len(enc.E0s) != len(choices) || len(enc.E1s) != len(choices) {
		return nil, fmt.Errorf("%w: ciphertext batch size mismatch", smc.ErrProtocol)
	}

	out := make([][]byte, len(choices))
	for i, b := range choices {
		vs, es := enc.V0s[i], enc.E0s[i]
		branch := byte(0)
		if b {
			vs, es = enc.V1s[i], enc.E1s[i]
			branch = 1
		}
		v, err := smc.DecodeBig(vs)
		if err != nil {
			return nil, err
		}
		shared := new(big.Int).Exp(v, xs[i], grp.P)
		m := append([]byte(nil), es...)
		xorInto(m, kdf(shared, i, branch, len(m)))
		out[i] = m
	}
	return out, nil
}
