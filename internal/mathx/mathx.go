// Package mathx provides the modular-arithmetic substrate shared by all
// cryptographic components of the DLA system: safe-prime groups, hashing
// into prime-order subgroups, random scalar generation, and Lagrange
// interpolation over Z_p.
//
// Every protocol in the paper (Pohlig-Hellman commutative encryption,
// Shamir secret sharing, one-way accumulators, oblivious transfer) works
// in Z_p* for a large prime p, so this package centralizes the number
// theory and the standard groups.
package mathx

import (
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"math/big"
)

// Common small constants. These are treated as immutable; callers must
// not modify them.
var (
	one  = big.NewInt(1)
	two  = big.NewInt(2)
	zero = big.NewInt(0)
)

// Errors returned by parameter validation.
var (
	// ErrBadBitSize indicates an unsupported bit size request.
	ErrBadBitSize = errors.New("mathx: unsupported bit size")
)

// Group describes the multiplicative group used by the commutative
// cipher and the relaxed-SMC protocols: Z_p* for a safe prime p = 2q+1.
// The prime-order-q subgroup (the quadratic residues) is where message
// encodings live, so that exponentiation leaks nothing through the
// Legendre symbol.
type Group struct {
	// P is the safe prime modulus.
	P *big.Int
	// Q is the Sophie Germain prime (P-1)/2, the subgroup order.
	Q *big.Int
}

// mustGroup builds a Group from a known-good hex constant. It panics on
// malformed constants, which can only happen if the embedded table is
// edited incorrectly; the table is covered by TestStandardGroups.
func mustGroup(hexP string) *Group {
	p, ok := new(big.Int).SetString(hexP, 16)
	if !ok {
		panic("mathx: bad embedded prime constant")
	}
	q := new(big.Int).Rsh(new(big.Int).Sub(p, one), 1)
	return &Group{P: p, Q: q}
}

// Standard MODP groups. All are safe primes published in RFC 2409
// (Oakley groups 1 and 2) and RFC 3526 (1536/2048-bit MODP). Embedding
// them avoids multi-second safe-prime generation at startup, exactly as
// deployed systems do.
var (
	// Oakley768 is the RFC 2409 First Oakley Group (768-bit). Too small
	// for production; retained for fast protocol tests.
	Oakley768 = mustGroup(
		"FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74" +
			"020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437" +
			"4FE1356D6D51C245E485B576625E7EC6F44C42E9A63A3620FFFFFFFFFFFFFFFF")

	// Oakley1024 is the RFC 2409 Second Oakley Group (1024-bit).
	Oakley1024 = mustGroup(
		"FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74" +
			"020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437" +
			"4FE1356D6D51C245E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED" +
			"EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE65381FFFFFFFFFFFFFFFF")

	// MODP1536 is the RFC 3526 1536-bit MODP group.
	MODP1536 = mustGroup(
		"FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74" +
			"020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437" +
			"4FE1356D6D51C245E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED" +
			"EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3DC2007CB8A163BF05" +
			"98DA48361C55D39A69163FA8FD24CF5F83655D23DCA3AD961C62F356208552BB" +
			"9ED529077096966D670C354E4ABC9804F1746C08CA237327FFFFFFFFFFFFFFFF")

	// MODP2048 is the RFC 3526 2048-bit MODP group.
	MODP2048 = mustGroup(
		"FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74" +
			"020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437" +
			"4FE1356D6D51C245E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED" +
			"EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3DC2007CB8A163BF05" +
			"98DA48361C55D39A69163FA8FD24CF5F83655D23DCA3AD961C62F356208552BB" +
			"9ED529077096966D670C354E4ABC9804F1746C08CA18217C32905E462E36CE3B" +
			"E39E772C180E86039B2783A2EC07A28FB5C55DF06F4C52C9DE2BCBF695581718" +
			"3995497CEA956AE515D2261898FA051015728E5A8AACAA68FFFFFFFFFFFFFFFF")
)

// StandardGroup returns the embedded safe-prime group with the given bit
// size (768, 1024, 1536, or 2048).
func StandardGroup(bits int) (*Group, error) {
	switch bits {
	case 768:
		return Oakley768, nil
	case 1024:
		return Oakley1024, nil
	case 1536:
		return MODP1536, nil
	case 2048:
		return MODP2048, nil
	default:
		return nil, fmt.Errorf("%w: %d (want 768, 1024, 1536, or 2048)", ErrBadBitSize, bits)
	}
}

// Bits reports the bit length of the modulus.
func (g *Group) Bits() int { return g.P.BitLen() }

// ShortExpBits returns the bit length of the encryption exponent of a
// session key (commutative.NewSessionKey) for the group. Recovering a short exponent from M and M^e mod p costs
// ~2^(bits/2) group operations (Pollard lambda over the exponent
// interval), so the schedule sizes exponents at twice the modulus's
// index-calculus strength — the same matching rule RFC 7919 applies to
// DH private exponents. The discrete log of the MODULUS therefore
// remains the weakest link exactly as with full-width exponents, while
// modular exponentiation, whose cost is linear in exponent bits, stops
// paying for security the group cannot deliver (256→144 bits is ~1.7x
// on the 768-bit group). It is also the exponent coverage of the
// commutative cipher's fixed-base tables.
//
// The decryption exponent d = e^-1 mod p-1 is full width regardless,
// so only encryption gets cheaper.
func (g *Group) ShortExpBits() int {
	switch bits := g.Bits(); {
	case bits <= 768:
		return 144 // ~2^72 lambda vs ~2^66 index calculus
	case bits <= 1024:
		return 160 // ~2^80 vs ~2^80
	case bits <= 1536:
		return 192 // ~2^96 vs ~2^90
	case bits <= 2048:
		return 224 // ~2^112 vs ~2^110
	default:
		return 256
	}
}

// HashToQR deterministically maps arbitrary bytes into the quadratic
// residue subgroup of the group: h = SHA-256*(data) mod p, squared mod p.
// Squaring guarantees the result lies in the prime-order-q subgroup, so
// commutative exponentiation over encodings leaks no residuosity bit.
// For moduli wider than 256 bits the digest is extended by counter-mode
// hashing so encodings are distributed over the whole group.
//
// Equal inputs map to equal group elements; distinct inputs collide with
// probability bounded by the SHA-256 collision bound, which is the
// paper's eq. (7) requirement.
func (g *Group) HashToQR(data []byte) *big.Int {
	need := (g.P.BitLen() + 7) / 8
	buf := make([]byte, 0, need+sha256.Size)
	var ctr [1]byte
	for len(buf) < need {
		h := sha256.New()
		h.Write(ctr[:])
		h.Write(data)
		buf = h.Sum(buf)
		ctr[0]++
	}
	x := new(big.Int).SetBytes(buf[:need])
	x.Mod(x, g.P)
	// Avoid the degenerate encodings 0 and ±1, whose powers are trivial.
	if x.Sign() == 0 || x.Cmp(one) == 0 {
		x.Add(x, two)
	}
	return x.Exp(x, two, g.P)
}

// RandScalar returns a uniformly random integer in [1, max-1], i.e. a
// nonzero element modulo max.
func RandScalar(rng io.Reader, max *big.Int) (*big.Int, error) {
	if rng == nil {
		rng = rand.Reader
	}
	if max.Cmp(two) < 0 {
		return nil, fmt.Errorf("mathx: modulus %v too small for a nonzero scalar", max)
	}
	bound := new(big.Int).Sub(max, one)
	for {
		x, err := rand.Int(rng, bound)
		if err != nil {
			return nil, fmt.Errorf("mathx: sampling scalar: %w", err)
		}
		x.Add(x, one) // shift to [1, max-1]
		return x, nil
	}
}

// RandCoprime returns a uniformly random integer in [2, n-1] that is
// coprime to n. Used to sample Pohlig-Hellman exponents (coprime to p-1)
// and accumulator exponents.
func RandCoprime(rng io.Reader, n *big.Int) (*big.Int, error) {
	if rng == nil {
		rng = rand.Reader
	}
	if n.Cmp(big.NewInt(4)) < 0 {
		return nil, fmt.Errorf("mathx: modulus %v too small for a coprime sample", n)
	}
	g := new(big.Int)
	for {
		x, err := rand.Int(rng, n)
		if err != nil {
			return nil, fmt.Errorf("mathx: sampling coprime: %w", err)
		}
		if x.Cmp(two) < 0 {
			continue
		}
		if g.GCD(nil, nil, x, n); g.Cmp(one) == 0 {
			return x, nil
		}
	}
}

// RandCoprimeBits returns a random integer of exactly the given bit
// length that is coprime to n. Short exponents keep modular
// exponentiation cheap while the inverse (computed over the full
// modulus) stays full width; see Group.ShortExpBits for the security
// argument.
func RandCoprimeBits(rng io.Reader, n *big.Int, bits int) (*big.Int, error) {
	if rng == nil {
		rng = rand.Reader
	}
	if bits < 2 || bits >= n.BitLen() {
		return RandCoprime(rng, n)
	}
	// Sample uniformly in [2^(bits-1), 2^bits) until coprime to n. The
	// density of coprimes is high for n = 2q (safe-prime groups), so a
	// couple of iterations suffice.
	low := new(big.Int).Lsh(one, uint(bits-1))
	g := new(big.Int)
	for {
		x, err := rand.Int(rng, low)
		if err != nil {
			return nil, fmt.Errorf("mathx: sampling short coprime: %w", err)
		}
		x.Add(x, low) // force the top bit: exactly `bits` bits
		if g.GCD(nil, nil, x, n); g.Cmp(one) == 0 {
			return x, nil
		}
	}
}

// InverseMod returns x^-1 mod n, or an error if x is not invertible.
func InverseMod(x, n *big.Int) (*big.Int, error) {
	inv := new(big.Int).ModInverse(x, n)
	if inv == nil {
		return nil, fmt.Errorf("mathx: %v is not invertible modulo %v", x, n)
	}
	return inv, nil
}

// LagrangeZero interpolates the degree-(len(xs)-1) polynomial through the
// points (xs[i], ys[i]) over Z_p and evaluates it at zero. This is the
// reconstruction step of Shamir secret sharing and of the paper's secure
// sum protocol (§3.5): the 0th-order coefficient of F(z) is the secret.
//
// The xs must be distinct and nonzero modulo p.
func LagrangeZero(p *big.Int, xs, ys []*big.Int) (*big.Int, error) {
	if len(xs) != len(ys) {
		return nil, fmt.Errorf("mathx: mismatched point counts %d and %d", len(xs), len(ys))
	}
	if len(xs) == 0 {
		return nil, errors.New("mathx: no points to interpolate")
	}
	acc := new(big.Int)
	num := new(big.Int)
	den := new(big.Int)
	term := new(big.Int)
	for i := range xs {
		// L_i(0) = prod_{j != i} x_j / (x_j - x_i)
		num.SetInt64(1)
		den.SetInt64(1)
		for j := range xs {
			if j == i {
				continue
			}
			num.Mul(num, xs[j])
			num.Mod(num, p)
			term.Sub(xs[j], xs[i])
			den.Mul(den, term)
			den.Mod(den, p)
		}
		invDen, err := InverseMod(den, p)
		if err != nil {
			return nil, fmt.Errorf("mathx: duplicate interpolation abscissa: %w", err)
		}
		term.Mul(num, invDen)
		term.Mod(term, p)
		term.Mul(term, ys[i])
		term.Mod(term, p)
		acc.Add(acc, term)
		acc.Mod(acc, p)
	}
	return acc, nil
}

// EvalPoly evaluates the polynomial with coefficients coeffs (low order
// first) at x over Z_p using Horner's rule.
func EvalPoly(p *big.Int, coeffs []*big.Int, x *big.Int) *big.Int {
	acc := new(big.Int)
	for i := len(coeffs) - 1; i >= 0; i-- {
		acc.Mul(acc, x)
		acc.Add(acc, coeffs[i])
		acc.Mod(acc, p)
	}
	return acc
}

// CmpZero reports whether v is congruent to zero modulo p.
func CmpZero(v, p *big.Int) bool {
	return new(big.Int).Mod(v, p).Cmp(zero) == 0
}
