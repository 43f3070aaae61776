package mathx

import (
	"errors"
	"math/big"
	"math/bits"
)

// Montgomery-form modular arithmetic.
//
// A Montgomery context fixes an odd modulus n and precomputes the
// constants REDC needs — R² mod n (for entering the domain) and
// n′ = -n⁻¹ mod 2⁶⁴ (the per-word reduction factor) — so that a modular
// multiplication becomes an interleaved multiply-reduce (CIOS) over raw
// uint64 limbs with no division and no allocation. Its one user is
// fixed-base table construction: the powers T[i] = base^(16^i) are a
// single squaring chain, 4 in-domain squarings per digit, instead of a
// big.Int.Exp (each re-deriving its own context) per entry.
//
// Results are bit-identical to math/big: REDC with the trailing
// conditional subtraction returns the canonical least non-negative
// residue, exactly like big.Int.Exp and big.Int.Mod. The differential
// tests and FuzzMontgomeryVsBig pin this through FixedBase for random
// moduli, bases, and the exponent edge cases (0, 1, group order).
//
// Scope note, measured on the 1-vCPU reference box: math/big's inner
// multiply loops are assembly while the CIOS kernel here is portable
// Go (~600 ns per 768-bit multiply versus ~350 ns inside math/big), so
// anything math/big can express directly stays on math/big — general
// exponentiations use big.Int.Exp, and the Yao fixed-base fold
// evaluates over big.Int Mul+QuoRem. See DESIGN.md §7.3.

// ErrEvenModulus reports a modulus REDC cannot handle; callers fall
// back to big.Int arithmetic.
var ErrEvenModulus = errors.New("mathx: montgomery requires an odd modulus")

// Montgomery is a Montgomery-arithmetic context for one odd modulus.
// It is read-only after construction; callers pass their own scratch.
type Montgomery struct {
	k  int      // limb count of the modulus
	n  []uint64 // modulus limbs, little-endian
	n0 uint64   // -mod⁻¹ mod 2⁶⁴
	rr []uint64 // R² mod n, R = 2^(64k)
}

// NewMontgomery builds a context for the given odd modulus > 1.
func NewMontgomery(mod *big.Int) (*Montgomery, error) {
	if mod == nil || mod.Sign() <= 0 || mod.Bit(0) == 0 || mod.BitLen() < 2 {
		return nil, ErrEvenModulus
	}
	k := (mod.BitLen() + 63) / 64
	m := &Montgomery{
		k: k,
		n: natFromBig(mod, k),
	}
	// n0 = -n⁻¹ mod 2⁶⁴ by Newton iteration (Dussé–Kaliski).
	y := m.n[0] // n odd ⇒ invertible mod 2⁶⁴
	for i := 0; i < 5; i++ {
		y *= 2 - m.n[0]*y
	}
	m.n0 = -y
	r := new(big.Int).Lsh(big.NewInt(1), uint(64*k))
	m.rr = natFromBig(new(big.Int).Mod(new(big.Int).Mul(r, r), mod), k)
	return m, nil
}

// natFromBig spreads x (0 ≤ x, fitting k limbs) into little-endian
// uint64 limbs.
func natFromBig(x *big.Int, k int) []uint64 {
	out := make([]uint64, k)
	natSetBig(out, x)
	return out
}

func natSetBig(dst []uint64, x *big.Int) {
	for i := range dst {
		dst[i] = 0
	}
	if bits.UintSize == 64 {
		for i, w := range x.Bits() {
			dst[i] = uint64(w)
		}
		return
	}
	for i, w := range x.Bits() {
		dst[i/2] |= uint64(w) << (32 * uint(i%2))
	}
}

// natPutWords writes the low len(dst) big.Words of the limbs x into
// dst, the inverse of natSetBig.
func natPutWords(dst []big.Word, x []uint64) {
	if bits.UintSize == 64 {
		for i := range dst {
			dst[i] = big.Word(x[i])
		}
		return
	}
	for i := range dst {
		dst[i] = big.Word(uint32(x[i/2] >> (32 * uint(i%2))))
	}
}

// montMul computes z = x·y·R⁻¹ mod n with the fused CIOS kernel: the
// word shift of each reduction round is folded into the second pass's
// store index, so the accumulator never moves. z must not alias t; z
// aliasing x or y is fine because x[i] and y[j] are read before any
// store to z happens (z is written only at the end).
func (m *Montgomery) montMul(z, x, y []uint64, t []uint64) {
	k := m.k
	n := m.n
	n0 := m.n0
	for i := 0; i <= k; i++ {
		t[i] = 0
	}
	for i := 0; i < k; i++ {
		xi := x[i]
		var c uint64
		for j := 0; j < k; j++ {
			hi, lo := bits.Mul64(xi, y[j])
			var cc uint64
			lo, cc = bits.Add64(lo, t[j], 0)
			hi += cc
			lo, cc = bits.Add64(lo, c, 0)
			c = hi + cc
			t[j] = lo
		}
		tk := t[k] + c
		var over uint64
		if tk < c {
			over = 1
		}
		q := t[0] * n0
		hi0, lo0 := bits.Mul64(q, n[0])
		_, cc0 := bits.Add64(lo0, t[0], 0)
		c = hi0 + cc0
		for j := 1; j < k; j++ {
			hi, lo := bits.Mul64(q, n[j])
			var cc uint64
			lo, cc = bits.Add64(lo, t[j], 0)
			hi += cc
			lo, cc = bits.Add64(lo, c, 0)
			c = hi + cc
			t[j-1] = lo
		}
		var cc uint64
		t[k-1], cc = bits.Add64(tk, c, 0)
		t[k] = over + cc
	}
	if t[k] != 0 || !natLess(t[:k], n) {
		var b uint64
		for i := 0; i < k; i++ {
			z[i], b = bits.Sub64(t[i], n[i], b)
		}
		return
	}
	copy(z, t[:k])
}

// natLess reports x < y for equal-length limb vectors.
func natLess(x, y []uint64) bool {
	for i := len(x) - 1; i >= 0; i-- {
		if x[i] != y[i] {
			return x[i] < y[i]
		}
	}
	return false
}

// enter converts x (canonical residue limbs) into the Montgomery
// domain: z = x·R mod n.
func (m *Montgomery) enter(z, x []uint64, t []uint64) { m.montMul(z, x, m.rr, t) }

// montMulOne is montMul with y = 1 — a bare REDC pass converting z out
// of the Montgomery domain to the canonical residue — avoiding the need
// to materialize a k-limb unit vector.
func (m *Montgomery) montMulOne(z, x []uint64, t []uint64) {
	k := m.k
	n := m.n
	n0 := m.n0
	for i := 0; i <= k; i++ {
		t[i] = 0
	}
	copy(t, x)
	for i := 0; i < k; i++ {
		q := t[0] * n0
		hi0, lo0 := bits.Mul64(q, n[0])
		_, cc0 := bits.Add64(lo0, t[0], 0)
		c := hi0 + cc0
		for j := 1; j < k; j++ {
			hi, lo := bits.Mul64(q, n[j])
			var cc uint64
			lo, cc = bits.Add64(lo, t[j], 0)
			hi += cc
			lo, cc = bits.Add64(lo, c, 0)
			c = hi + cc
			t[j-1] = lo
		}
		var cc uint64
		t[k-1], cc = bits.Add64(t[k], c, 0)
		t[k] = cc
	}
	if t[k] != 0 || !natLess(t[:k], n) {
		var b uint64
		for i := 0; i < k; i++ {
			z[i], b = bits.Sub64(t[i], n[i], b)
		}
		return
	}
	copy(z, t[:k])
}
