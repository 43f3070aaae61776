package mathx

import (
	"crypto/rand"
	"math/big"
	mrand "math/rand"
	"sync"
	"testing"
)

func TestFixedBaseMatchesExp(t *testing.T) {
	g := Oakley768
	for trial := 0; trial < 8; trial++ {
		base, err := rand.Int(rand.Reader, g.P)
		if err != nil {
			t.Fatal(err)
		}
		fb := NewFixedBase(base, g.P, 256)
		for _, bits := range []int{1, 7, 64, 144, 255, 256} {
			e, err := rand.Int(rand.Reader, new(big.Int).Lsh(big.NewInt(1), uint(bits)))
			if err != nil {
				t.Fatal(err)
			}
			got := fb.Exp(e)
			want := new(big.Int).Exp(base, e, g.P)
			if got == nil || got.Cmp(want) != 0 {
				t.Fatalf("bits=%d: fixed-base %v != Exp %v", bits, got, want)
			}
		}
	}
}

func TestFixedBaseEdgeCases(t *testing.T) {
	p := big.NewInt(101)
	fb := NewFixedBase(big.NewInt(7), p, 16)
	if got := fb.Exp(big.NewInt(0)); got.Cmp(big.NewInt(1)) != 0 {
		t.Fatalf("e=0: got %v, want 1", got)
	}
	if got := fb.Exp(big.NewInt(1)); got.Cmp(big.NewInt(7)) != 0 {
		t.Fatalf("e=1: got %v, want 7", got)
	}
	// An exponent wider than the table is refused, not mis-evaluated.
	wide := new(big.Int).Lsh(big.NewInt(1), 40)
	if fb.Covers(wide) {
		t.Fatal("table claims to cover a 41-bit exponent with a 16-bit table")
	}
	if got := fb.Exp(wide); got != nil {
		t.Fatalf("out-of-range exponent evaluated to %v, want nil", got)
	}
	if fb.Exp(big.NewInt(-3)) != nil {
		t.Fatal("negative exponent must be refused")
	}
	if NewFixedBase(big.NewInt(3), nil, 16) != nil {
		t.Fatal("nil modulus must yield nil table")
	}
}

// TestFixedBaseCoverageEdge pins the width the commutative cipher
// builds its tables for: an exponent of exactly ShortExpBits bits is
// covered and evaluated, one bit more is refused; and the flat table
// holds exactly one modulus-wide entry per covered digit.
func TestFixedBaseCoverageEdge(t *testing.T) {
	for _, g := range []*Group{Oakley768, Oakley1024, MODP1536, MODP2048} {
		bits := g.ShortExpBits()
		base := g.HashToQR([]byte("coverage edge"))
		fb := NewFixedBase(base, g.P, bits)
		edge := new(big.Int).Lsh(big.NewInt(1), uint(bits))
		edge.Sub(edge, big.NewInt(1)) // exactly bits bits, every digit 15
		if !fb.Covers(edge) {
			t.Fatalf("%d-bit group: %d-bit exponent not covered", g.Bits(), bits)
		}
		if got, want := fb.Exp(edge), new(big.Int).Exp(base, edge, g.P); got == nil || got.Cmp(want) != 0 {
			t.Fatalf("%d-bit group: edge exponent evaluated to %v, want %v", g.Bits(), got, want)
		}
		over := new(big.Int).Lsh(big.NewInt(1), uint(bits)) // bits+1 bits
		if fb.Covers(over) || fb.Exp(over) != nil {
			t.Fatalf("%d-bit group: %d-bit exponent claimed covered", g.Bits(), bits+1)
		}
		if got, want := fb.Size(), bits/4*len(g.P.Bits())*bitsPerWord/8; got != want {
			t.Fatalf("%d-bit group: table is %d bytes, want %d", g.Bits(), got, want)
		}
	}
}

func TestFixedBaseSmallModulusExhaustive(t *testing.T) {
	p := big.NewInt(2579) // prime
	for base := int64(1); base < 40; base += 3 {
		fb := NewFixedBase(big.NewInt(base), p, 24)
		for e := int64(0); e < 300; e += 7 {
			got := fb.Exp(big.NewInt(e))
			want := new(big.Int).Exp(big.NewInt(base), big.NewInt(e), p)
			if got.Cmp(want) != 0 {
				t.Fatalf("base=%d e=%d: got %v want %v", base, e, got, want)
			}
		}
	}
}

func BenchmarkExpPlain144(b *testing.B)     { benchExp(b, 144, false) }
func BenchmarkExpFixedBase144(b *testing.B) { benchExp(b, 144, true) }
func BenchmarkExpPlain768(b *testing.B)     { benchExp(b, 768, false) }
func BenchmarkExpFixedBase768(b *testing.B) { benchExp(b, 768, true) }

// BenchmarkFixedBaseBuild is the one-time cost of a table at every
// size the code builds: a first-hop table covering ShortExpBits on the
// 768- and 1024-bit groups, the accumulator's X0 table at 256 bits and
// its wide 2048-bit table on a 512-bit N, and the wide table on a
// 2048-bit N. An odd random modulus of the same width stands in for
// each N.
func BenchmarkFixedBaseBuild(b *testing.B) {
	rng := mrand.New(mrand.NewSource(1))
	oddModulus := func(bits int) *big.Int {
		n := new(big.Int).Rand(rng, new(big.Int).Lsh(big.NewInt(1), uint(bits)))
		n.SetBit(n, bits-1, 1)
		return n.SetBit(n, 0, 1)
	}
	n512, n2048 := oddModulus(512), oddModulus(2048)
	for _, c := range []struct {
		name string
		mod  *big.Int
		bits int
	}{
		{"768/144", Oakley768.P, 144},
		{"1024/160", Oakley1024.P, 160},
		{"N512/256", n512, 256},
		{"N512/2048", n512, 2048},
		{"N2048/2048", n2048, 2048},
	} {
		base := new(big.Int).Rand(rng, c.mod)
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				NewFixedBase(base, c.mod, c.bits)
			}
		})
	}
}

func benchExp(b *testing.B, bits int, fixed bool) {
	g := Oakley768
	base, _ := rand.Int(rand.Reader, g.P)
	e, _ := rand.Int(rand.Reader, new(big.Int).Lsh(big.NewInt(1), uint(bits)))
	e.SetBit(e, bits-1, 1)
	fb := NewFixedBase(base, g.P, bits)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if fixed {
			fb.Exp(e)
		} else {
			new(big.Int).Exp(base, e, g.P)
		}
	}
}

// TestMontgomeryExpMatchesBig pins the one squaring chain that builds
// every table: a table over each modulus — tiny, 64-bit, the four
// groups, an odd composite, and even ones — must evaluate every
// exponent edge case to big.Int.Exp's residue. The name is kept from
// the Montgomery kernel that once built the odd-modulus tables.
func TestMontgomeryExpMatchesBig(t *testing.T) {
	rng := mrand.New(mrand.NewSource(7))
	moduli := []*big.Int{
		big.NewInt(3),
		big.NewInt(65537),
		new(big.Int).SetUint64(0xFFFFFFFFFFFFFFC5), // largest 64-bit prime
		Oakley768.P,
		Oakley1024.P,
		MODP1536.P,
		MODP2048.P,
		new(big.Int).Mul(big.NewInt(3037000493), big.NewInt(2147483647)), // odd composite
		big.NewInt(10),      // even
		big.NewInt(1 << 20), // even, a power of two
	}
	for _, mod := range moduli {
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
				want := new(big.Int).Exp(base, e, mod)
				if got == nil || got.Cmp(want) != 0 {
					t.Fatalf("mod %d bits: %v^%v: got %v want %v",
						mod.BitLen(), base, e, got, want)
				}
			}
		}
	}
}

// FuzzFixedBaseVsBig is the differential fuzzer for table builds:
// random moduli in the DLA range (768–2048 bits, derived from the fuzz
// input, odd or even as drawn), random bases, and exponents covering
// the 0/1/order edge cases. A table must agree with big.Int.Exp on
// every one.
func FuzzFixedBaseVsBig(f *testing.F) {
	f.Add(int64(1), []byte{2}, []byte{3}, uint(0))
	f.Add(int64(2), []byte{0xFF, 0x01}, []byte{0}, uint(1))
	f.Add(int64(3), []byte{7, 7, 7}, []byte{1}, uint(2))
	f.Add(int64(4), []byte{}, []byte{0xAB, 0xCD}, uint(3))
	f.Add(int64(5), []byte{0x80}, []byte{0x10, 0x00}, uint(9))
	f.Fuzz(func(t *testing.T, seed int64, baseBytes, expBytes []byte, sel uint) {
		rng := mrand.New(mrand.NewSource(seed))
		bits := 768 + int(sel%5)*320 // 768, 1088, 1408, 1728, 2048
		mod := new(big.Int).Rand(rng, new(big.Int).Lsh(big.NewInt(1), uint(bits)))
		mod.SetBit(mod, bits-1, 1) // full width
		base := new(big.Int).SetBytes(baseBytes)
		e := new(big.Int).SetBytes(expBytes)
		order := new(big.Int).Sub(mod, big.NewInt(1))
		fb := NewFixedBase(base, mod, max(e.BitLen(), order.BitLen()))
		for _, exp := range []*big.Int{e, big.NewInt(0), big.NewInt(1), order} {
			if got, want := fb.Exp(exp), new(big.Int).Exp(base, exp, mod); got == nil || got.Cmp(want) != 0 {
				t.Fatalf("mod %d bits, e %d bits: got %v want %v",
					mod.BitLen(), exp.BitLen(), got, want)
			}
		}
	})
}

// TestFixedBaseEvenModulus pins an even modulus, which takes the same
// squaring chain as an odd one.
func TestFixedBaseEvenModulus(t *testing.T) {
	m := big.NewInt(1 << 20) // even
	fb := NewFixedBase(big.NewInt(7), m, 64)
	for e := int64(0); e < 200; e += 13 {
		got := fb.Exp(big.NewInt(e))
		want := new(big.Int).Exp(big.NewInt(7), big.NewInt(e), m)
		if got.Cmp(want) != 0 {
			t.Fatalf("e=%d: got %v want %v", e, got, want)
		}
	}
}

// TestFixedBaseAllocStable pins the pooled-scratch contract: after
// warmup, a fixed-base exponentiation allocates only its result (the
// big.Int header plus its limb array), never per-call scratch.
func TestFixedBaseAllocStable(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are not meaningful under the race detector")
	}
	g := Oakley768
	base, _ := rand.Int(rand.Reader, g.P)
	e, _ := rand.Int(rand.Reader, new(big.Int).Lsh(big.NewInt(1), 144))
	e.SetBit(e, 143, 1)
	fb := NewFixedBase(base, g.P, 256)
	fb.Exp(e) // warm the scratch pool
	allocs := testing.AllocsPerRun(50, func() { fb.Exp(e) })
	if allocs > 3 {
		t.Fatalf("fixed-base Exp allocates %.1f objects per call, want <=3 (result only)", allocs)
	}
}

// TestFixedBaseConcurrent hammers one table from many goroutines; under
// -race this pins that the pooled scratch is never shared between
// concurrent evaluations.
func TestFixedBaseConcurrent(t *testing.T) {
	g := Oakley768
	base, _ := rand.Int(rand.Reader, g.P)
	fb := NewFixedBase(base, g.P, 256)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := mrand.New(mrand.NewSource(seed))
			for i := 0; i < 25; i++ {
				e := new(big.Int).Rand(rng, new(big.Int).Lsh(big.NewInt(1), 160))
				got := fb.Exp(e)
				want := new(big.Int).Exp(base, e, g.P)
				if got.Cmp(want) != 0 {
					t.Errorf("concurrent fixed-base mismatch (seed %d)", seed)
					return
				}
			}
		}(int64(w))
	}
	wg.Wait()
}
