package mathx

import (
	"math/big"
	"math/rand"
	"testing"
)

// expRef is the reference the Montgomery-built tables must match bit
// for bit.
func expRef(base, e, mod *big.Int) *big.Int {
	return new(big.Int).Exp(base, e, mod)
}

func TestMontgomeryRejectsBadModuli(t *testing.T) {
	for _, mod := range []*big.Int{
		nil,
		big.NewInt(0),
		big.NewInt(-7),
		big.NewInt(1),
		big.NewInt(10),      // even
		big.NewInt(1 << 20), // even, larger
	} {
		if _, err := NewMontgomery(mod); err == nil {
			t.Errorf("NewMontgomery(%v): want error, got nil", mod)
		}
	}
}

// TestMontgomeryExpMatchesBig pins the Montgomery squaring chain that
// builds every odd-modulus FixedBase: a table over each modulus must
// evaluate every exponent edge case to big.Int.Exp's residue.
func TestMontgomeryExpMatchesBig(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	moduli := []*big.Int{
		big.NewInt(3),
		big.NewInt(65537),
		new(big.Int).SetUint64(0xFFFFFFFFFFFFFFC5), // largest 64-bit prime
		Oakley768.P,
		Oakley1024.P,
		MODP1536.P,
		MODP2048.P,
	}
	// Odd non-prime modulus too: REDC needs oddness, not primality.
	composite := new(big.Int).Mul(big.NewInt(3037000493), big.NewInt(2147483647))
	moduli = append(moduli, composite)

	for _, mod := range moduli {
		if _, err := NewMontgomery(mod); err != nil {
			t.Fatalf("NewMontgomery(%v): %v", mod, err)
		}
		order := new(big.Int).Sub(mod, big.NewInt(1))
		exponents := []*big.Int{
			big.NewInt(0),
			big.NewInt(1),
			big.NewInt(2),
			big.NewInt(16),
			big.NewInt(65537),
			order,                                  // group order edge
			new(big.Int).Add(order, big.NewInt(1)), // wraps the order
			new(big.Int).Lsh(big.NewInt(1), 255),   // single high bit
		}
		for i := 0; i < 6; i++ {
			e := new(big.Int).Rand(rng, new(big.Int).Lsh(big.NewInt(1), 256))
			exponents = append(exponents, e)
		}
		width := 0
		for _, e := range exponents {
			width = max(width, e.BitLen())
		}
		bases := []*big.Int{
			big.NewInt(0),
			big.NewInt(1),
			big.NewInt(2),
			new(big.Int).Sub(mod, big.NewInt(1)),
			new(big.Int).Add(mod, big.NewInt(5)), // out of range: reduced
		}
		for i := 0; i < 4; i++ {
			b := new(big.Int).Rand(rng, mod)
			bases = append(bases, b)
		}
		for _, base := range bases {
			fb := NewFixedBase(base, mod, width)
			for _, e := range exponents {
				got := fb.Exp(e)
				want := expRef(base, e, mod)
				if got == nil || got.Cmp(want) != 0 {
					t.Fatalf("mod %d bits: %v^%v: got %v want %v",
						mod.BitLen(), base, e, got, want)
				}
			}
		}
	}
}

// FuzzMontgomeryVsBig is the differential fuzzer the acceptance
// criteria require: random moduli in the DLA range (768–2048 bits,
// derived from the fuzz input so even candidates exercise the
// rejection path), random bases, and exponents covering the 0/1/order
// edge cases. A Montgomery-built fixed-base table must agree with
// big.Int.Exp on every one.
func FuzzMontgomeryVsBig(f *testing.F) {
	f.Add(int64(1), []byte{2}, []byte{3}, uint(0))
	f.Add(int64(2), []byte{0xFF, 0x01}, []byte{0}, uint(1))
	f.Add(int64(3), []byte{7, 7, 7}, []byte{1}, uint(2))
	f.Add(int64(4), []byte{}, []byte{0xAB, 0xCD}, uint(3))
	f.Add(int64(5), []byte{0x80}, []byte{0x10, 0x00}, uint(9))
	f.Fuzz(func(t *testing.T, seed int64, baseBytes, expBytes []byte, sel uint) {
		rng := rand.New(rand.NewSource(seed))
		bits := 768 + int(sel%5)*320 // 768, 1088, 1408, 1728, 2048
		mod := new(big.Int).Rand(rng, new(big.Int).Lsh(big.NewInt(1), uint(bits)))
		mod.SetBit(mod, bits-1, 1) // full width
		if _, err := NewMontgomery(mod); mod.Bit(0) == 0 {
			if err == nil {
				t.Fatal("even modulus accepted")
			}
			mod.SetBit(mod, 0, 1)
			if _, err = NewMontgomery(mod); err != nil {
				t.Fatalf("odd modulus rejected: %v", err)
			}
		} else if err != nil {
			t.Fatalf("odd modulus rejected: %v", err)
		}
		base := new(big.Int).SetBytes(baseBytes)
		e := new(big.Int).SetBytes(expBytes)
		order := new(big.Int).Sub(mod, big.NewInt(1))
		fb := NewFixedBase(base, mod, max(e.BitLen(), order.BitLen()))
		for _, exp := range []*big.Int{e, big.NewInt(0), big.NewInt(1), order} {
			if got, want := fb.Exp(exp), expRef(base, exp, mod); got == nil || got.Cmp(want) != 0 {
				t.Fatalf("mod %d bits, e %d bits: got %v want %v",
					mod.BitLen(), exp.BitLen(), got, want)
			}
		}
	})
}
