// Package blind implements RSA blind signatures, the mechanism behind
// the paper's "anonymous yet verifiable" credential tokens (§4.2,
// Fig. 7). The paper's companion reference [30] describes e-coin style
// r-binding/x-binding; the standard construction with identical
// properties is Chaum's blind signature:
//
//   - a node blinds its token request so the credential authority signs
//     without learning the token (anonymity toward the CA);
//   - the unblinded signature verifies under the CA public key
//     (unforgeability: only the CA could have issued it);
//   - presenting the token later cannot be linked to the issuing session
//     (unlinkability).
//
// Messages are hashed to the full modulus width with counter-mode
// SHA-256 (FDH), so signatures cannot be forged by multiplicative
// mauling.
package blind

import (
	"crypto/rand"
	"crypto/rsa"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"math/big"
)

// Errors reported by the package.
var (
	// ErrVerifyFailed indicates a signature that does not verify.
	ErrVerifyFailed = errors.New("blind: signature verification failed")
	// ErrBadBlinding indicates an unusable blinding factor or message.
	ErrBadBlinding = errors.New("blind: invalid blinding state")
)

// PublicKey is the CA verification key.
type PublicKey struct {
	// N is the RSA modulus.
	N *big.Int
	// E is the public exponent.
	E *big.Int
}

// Authority holds the credential-authority signing key. Private-key
// operations run in CRT form from the prime factors — two half-width
// exponentiations instead of one full-width one, ~3.5x faster — with
// results identical to the plain x^d mod N.
type Authority struct {
	pub PublicKey
	// CRT form of the private exponent d: the primes, d mod (p-1),
	// d mod (q-1) and q^-1 mod p.
	p, q, dp, dq, qinv *big.Int
}

// NewAuthority generates a fresh CA key of the given modulus size.
func NewAuthority(rng io.Reader, bits int) (*Authority, error) {
	if rng == nil {
		rng = rand.Reader
	}
	key, err := rsa.GenerateKey(rng, bits)
	if err != nil {
		return nil, fmt.Errorf("blind: generating CA key: %w", err)
	}
	p, q := key.Primes[0], key.Primes[1]
	one := big.NewInt(1)
	return &Authority{
		pub:  PublicKey{N: key.N, E: big.NewInt(int64(key.E))},
		p:    p,
		q:    q,
		dp:   new(big.Int).Mod(key.D, new(big.Int).Sub(p, one)),
		dq:   new(big.Int).Mod(key.D, new(big.Int).Sub(q, one)),
		qinv: new(big.Int).ModInverse(q, p),
	}, nil
}

// expPriv computes x^d mod N by Garner recombination:
// m = m2 + q*((m1 - m2)*qinv mod p).
func (a *Authority) expPriv(x *big.Int) *big.Int {
	m1 := new(big.Int).Exp(x, a.dp, a.p)
	m2 := new(big.Int).Exp(x, a.dq, a.q)
	h := m1.Sub(m1, m2)
	h.Mul(h, a.qinv)
	h.Mod(h, a.p)
	h.Mul(h, a.q)
	h.Add(h, m2)
	return h
}

// Public returns the CA verification key.
func (a *Authority) Public() PublicKey { return a.pub }

// SignBlinded signs a blinded message. The CA cannot tell which token it
// is issuing; rate limiting / admission policy is the caller's concern.
func (a *Authority) SignBlinded(blinded *big.Int) (*big.Int, error) {
	if blinded == nil || blinded.Sign() <= 0 || blinded.Cmp(a.pub.N) >= 0 {
		return nil, fmt.Errorf("%w: blinded message out of range", ErrBadBlinding)
	}
	return a.expPriv(blinded), nil
}

// hashToModulus maps a message to [0, N) with counter-mode SHA-256,
// giving a full-domain hash.
func hashToModulus(pub PublicKey, msg []byte) *big.Int {
	need := (pub.N.BitLen() + 7) / 8
	buf := make([]byte, 0, need+sha256.Size)
	var ctr [1]byte
	for len(buf) < need {
		h := sha256.New()
		h.Write(ctr[:])
		h.Write(msg)
		buf = h.Sum(buf)
		ctr[0]++
	}
	m := new(big.Int).SetBytes(buf[:need])
	return m.Mod(m, pub.N)
}

// Blinded is the client-side state of one blind-signature session.
type Blinded struct {
	// Msg is the blinded value to submit to the CA.
	Msg *big.Int
	// unblinder is r^-1 mod N, kept private by the requester.
	unblinder *big.Int
}

// Blind prepares msg for blind signing: m' = H(m) * r^e mod N for a
// random unit r.
func Blind(rng io.Reader, pub PublicKey, msg []byte) (*Blinded, error) {
	if rng == nil {
		rng = rand.Reader
	}
	h := hashToModulus(pub, msg)
	if h.Sign() == 0 {
		return nil, fmt.Errorf("%w: degenerate message hash", ErrBadBlinding)
	}
	var r, rInv *big.Int
	for {
		var err error
		r, err = rand.Int(rng, pub.N)
		if err != nil {
			return nil, fmt.Errorf("blind: sampling blinding factor: %w", err)
		}
		if r.Sign() == 0 {
			continue
		}
		if rInv = new(big.Int).ModInverse(r, pub.N); rInv != nil {
			break
		}
	}
	re := new(big.Int).Exp(r, pub.E, pub.N)
	blindedMsg := re.Mul(re, h)
	blindedMsg.Mod(blindedMsg, pub.N)
	return &Blinded{Msg: blindedMsg, unblinder: rInv}, nil
}

// Unblind removes the blinding factor from the CA's signature on the
// blinded message, yielding a standard signature on the original msg.
func (b *Blinded) Unblind(pub PublicKey, blindSig *big.Int) (*big.Int, error) {
	if blindSig == nil || b.unblinder == nil {
		return nil, fmt.Errorf("%w: missing signature or unblinder", ErrBadBlinding)
	}
	sig := new(big.Int).Mul(blindSig, b.unblinder)
	sig.Mod(sig, pub.N)
	return sig, nil
}

// Verify checks sig^e == H(msg) mod N.
func Verify(pub PublicKey, msg []byte, sig *big.Int) error {
	if sig == nil || sig.Sign() <= 0 || sig.Cmp(pub.N) >= 0 {
		return ErrVerifyFailed
	}
	want := hashToModulus(pub, msg)
	got := new(big.Int).Exp(sig, pub.E, pub.N)
	if got.Cmp(want) != 0 {
		return ErrVerifyFailed
	}
	return nil
}

// Sign issues a direct (non-blind) signature; members use it on the
// evidence pieces of the join protocol, where anonymity toward the
// signer is not needed.
func (a *Authority) Sign(msg []byte) (*big.Int, error) {
	h := hashToModulus(a.pub, msg)
	if h.Sign() == 0 {
		return nil, fmt.Errorf("%w: degenerate message hash", ErrBadBlinding)
	}
	return a.expPriv(h), nil
}
