// Package accumulator implements the one-way accumulator of the paper's
// §4.1 (references [26][27]): A(x, y) = x^y mod n for an RSA modulus n.
//
// The accumulator is "like a one-way hash function, except that it is
// commutative" (paper eq. 9): accumulating a set of items yields the
// same digest regardless of order, i.e.
//
//	A(A(A(x0,y1),y2),y3) = A(A(A(x0,y2),y3),y1)
//
// which is what lets DLA nodes circulate partial accumulations in any
// ring order and still verify the user-supplied digest (paper §4.1).
//
// Items are mapped to exponents by hashing to odd 256-bit integers, the
// standard quasi-prime representative trick from Benaloh-de Mare.
package accumulator

import (
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"math/big"
	"sync"

	"confaudit/internal/mathx"
)

// Errors reported by the package.
var (
	// ErrBadParams indicates malformed accumulator parameters.
	ErrBadParams = errors.New("accumulator: invalid parameters")
)

// Params holds the public accumulator parameters that, per the paper,
// "must be agreed upon in advance" by the application nodes U and the
// DLA cluster P: the RSA modulus n and the base x0.
type Params struct {
	// N is the RSA modulus (product of two primes, factors discarded).
	N *big.Int
	// X0 is the agreed starting value of every accumulation.
	X0 *big.Int

	// x0Table lazily caches the fixed-base powers of X0. Every
	// accumulation — and every integrity circulation a ring node
	// initiates — starts from the same agreed base, so the first fold
	// is a fixed-base exponentiation; the table build amortizes after
	// two accumulations. Built on first use so literal-constructed
	// Params (provisioning, tests) get it transparently.
	x0Once  sync.Once
	x0Table *mathx.FixedBase

	// x0Wide extends the table to product-of-exponents width: a record
	// digest is X0^(∏ e_i), so its exponent is several HashItem widths
	// long. Built only when PowX0 first sees such an exponent.
	x0WideOnce sync.Once
	x0Wide     *mathx.FixedBase
}

// x0WideBits covers exponent products of up to eight 256-bit item
// exponents — more fragments than any partition in the paper. Wider
// products fall back to a general exponentiation.
const x0WideBits = 8 * 256

// GenerateParams creates fresh parameters with a modulus of the given
// bit length. The prime factors are generated and immediately discarded
// so no party knows the trapdoor, making the accumulator one-way for
// everyone.
func GenerateParams(rng io.Reader, bits int) (*Params, error) {
	if bits < 32 {
		return nil, fmt.Errorf("%w: modulus must be at least 32 bits, got %d", ErrBadParams, bits)
	}
	if rng == nil {
		rng = rand.Reader
	}
	half := bits / 2
	p, err := rand.Prime(rng, half)
	if err != nil {
		return nil, fmt.Errorf("accumulator: generating prime: %w", err)
	}
	q, err := rand.Prime(rng, bits-half)
	if err != nil {
		return nil, fmt.Errorf("accumulator: generating prime: %w", err)
	}
	for p.Cmp(q) == 0 {
		if q, err = rand.Prime(rng, bits-half); err != nil {
			return nil, fmt.Errorf("accumulator: generating prime: %w", err)
		}
	}
	n := new(big.Int).Mul(p, q)
	x0, err := randUnit(rng, n)
	if err != nil {
		return nil, err
	}
	return &Params{N: n, X0: x0}, nil
}

func randUnit(rng io.Reader, n *big.Int) (*big.Int, error) {
	g := new(big.Int)
	for {
		x, err := rand.Int(rng, n)
		if err != nil {
			return nil, fmt.Errorf("accumulator: sampling base: %w", err)
		}
		if x.Cmp(big.NewInt(2)) < 0 {
			continue
		}
		if g.GCD(nil, nil, x, n); g.Cmp(big.NewInt(1)) == 0 {
			return x, nil
		}
	}
}

// Validate checks structural sanity of the parameters.
func (p *Params) Validate() error {
	if p == nil || p.N == nil || p.X0 == nil {
		return fmt.Errorf("%w: nil fields", ErrBadParams)
	}
	if p.N.Cmp(big.NewInt(6)) < 0 {
		return fmt.Errorf("%w: modulus too small", ErrBadParams)
	}
	if p.X0.Sign() <= 0 || p.X0.Cmp(p.N) >= 0 {
		return fmt.Errorf("%w: base out of range", ErrBadParams)
	}
	return nil
}

// HashItem maps arbitrary item bytes to the odd 256-bit exponent used in
// accumulation. Odd exponents are coprime to the (even) group order's
// power-of-two part, avoiding degenerate short cycles.
func HashItem(data []byte) *big.Int { return hashInto(new(big.Int), data) }

// hashInto sets e to HashItem(data), reusing e's storage.
func hashInto(e *big.Int, data []byte) *big.Int {
	sum := sha256.Sum256(data)
	e.SetBytes(sum[:])
	e.SetBit(e, 0, 1)   // force odd
	e.SetBit(e, 255, 1) // force full width so exponents are uniformly large
	return e
}

// Accumulate computes A(x, item) = x^H(item) mod n. Accumulations
// from the agreed base X0 use its cached powers table; the result is
// identical to the plain exponentiation.
func (p *Params) Accumulate(x *big.Int, item []byte) *big.Int {
	e := HashItem(item)
	if x != nil && p.X0 != nil && (x == p.X0 || x.Cmp(p.X0) == 0) {
		if r := p.powX0Narrow(e); r != nil {
			return r
		}
	}
	return new(big.Int).Exp(x, e, p.N)
}

// powX0Narrow evaluates X0^e from the single-item-width table, or nil
// when e is wider than one HashItem exponent.
func (p *Params) powX0Narrow(e *big.Int) *big.Int {
	p.x0Once.Do(func() {
		// HashItem exponents are exactly 256 bits wide.
		p.x0Table = mathx.NewFixedBase(p.X0, p.N, 256)
	})
	return p.x0Table.Exp(e)
}

// PowX0 computes X0^e mod N for an arbitrary non-negative exponent,
// using the cached fixed-base tables: the single-item table for
// HashItem-width exponents, the wide table for exponent products
// (digests), and a general exponentiation beyond that. Fixed-base
// evaluation replaces the |e| squarings of a general exponentiation
// with one multiplication per radix-16 digit, which is what makes
// shipping a digest EXPONENT (a cheap big-integer product) and
// materializing the group element lazily a net win.
func (p *Params) PowX0(e *big.Int) *big.Int {
	if r := p.powX0Narrow(e); r != nil {
		return r
	}
	p.x0WideOnce.Do(func() {
		p.x0Wide = mathx.NewFixedBase(p.X0, p.N, x0WideBits)
	})
	if r := p.x0Wide.Exp(e); r != nil {
		return r
	}
	return new(big.Int).Exp(p.X0, e, p.N)
}

// AccumulateAll folds every item into the digest starting from X0. Per
// eq. (9) the result is independent of item order.
func (p *Params) AccumulateAll(items [][]byte) *big.Int {
	acc := new(big.Int).Set(p.X0)
	for _, it := range items {
		acc = p.Accumulate(acc, it)
	}
	return acc
}

// Verify reports whether the digest matches the accumulation of items.
func (p *Params) Verify(digest *big.Int, items [][]byte) bool {
	return digest != nil && p.AccumulateAll(items).Cmp(digest) == 0
}
