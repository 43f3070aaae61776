package mathx

import (
	"bytes"
	"crypto/rand"
	"math/big"
	"testing"
	"testing/quick"
)

func TestStandardGroups(t *testing.T) {
	cases := []struct {
		name string
		g    *Group
		bits int
	}{
		{"Oakley768", Oakley768, 768},
		{"Oakley1024", Oakley1024, 1024},
		{"MODP1536", MODP1536, 1536},
		{"MODP2048", MODP2048, 2048},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.g.Bits(); got != tc.bits {
				t.Fatalf("Bits() = %d, want %d", got, tc.bits)
			}
			if !tc.g.P.ProbablyPrime(64) {
				t.Fatal("modulus not prime")
			}
			if !tc.g.Q.ProbablyPrime(64) {
				t.Fatal("(p-1)/2 not prime: group is not a safe-prime group")
			}
			// q = (p-1)/2 exactly.
			want := new(big.Int).Rsh(new(big.Int).Sub(tc.g.P, big.NewInt(1)), 1)
			if tc.g.Q.Cmp(want) != 0 {
				t.Fatal("Q != (P-1)/2")
			}
		})
	}
}

func TestStandardGroupLookup(t *testing.T) {
	for _, bits := range []int{768, 1024, 1536, 2048} {
		g, err := StandardGroup(bits)
		if err != nil {
			t.Fatalf("StandardGroup(%d): %v", bits, err)
		}
		if g.Bits() != bits {
			t.Fatalf("StandardGroup(%d) has %d bits", bits, g.Bits())
		}
	}
	if _, err := StandardGroup(512); err == nil {
		t.Fatal("StandardGroup(512) should fail")
	}
}

func TestHashToQRDeterministicAndInSubgroup(t *testing.T) {
	g := Oakley768
	a := g.HashToQR([]byte("transaction T1100265"))
	b := g.HashToQR([]byte("transaction T1100265"))
	if a.Cmp(b) != 0 {
		t.Fatal("HashToQR is not deterministic")
	}
	c := g.HashToQR([]byte("transaction T1100266"))
	if a.Cmp(c) == 0 {
		t.Fatal("distinct inputs collided")
	}
	// Membership in the order-q subgroup: x^q == 1 (mod p).
	oneBig := big.NewInt(1)
	for _, x := range []*big.Int{a, c} {
		if new(big.Int).Exp(x, g.Q, g.P).Cmp(oneBig) != 0 {
			t.Fatal("HashToQR output not in the quadratic-residue subgroup")
		}
	}
}

func TestHashToQRCoversModulusWidth(t *testing.T) {
	// With counter-mode extension the encodings should exceed 256 bits
	// for most inputs on a 768-bit modulus.
	g := Oakley768
	wide := 0
	for i := 0; i < 32; i++ {
		x := g.HashToQR([]byte{byte(i)})
		if x.BitLen() > 300 {
			wide++
		}
	}
	if wide < 30 {
		t.Fatalf("only %d/32 encodings wider than 300 bits; extension broken", wide)
	}
}

func TestHashToQRQuick(t *testing.T) {
	g := Oakley768
	f := func(a, b []byte) bool {
		ea, eb := g.HashToQR(a), g.HashToQR(b)
		if bytes.Equal(a, b) {
			return ea.Cmp(eb) == 0
		}
		return ea.Cmp(eb) != 0 // collision would falsify (paper eq. 7)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRandScalarRange(t *testing.T) {
	max := big.NewInt(97)
	for i := 0; i < 200; i++ {
		x, err := RandScalar(rand.Reader, max)
		if err != nil {
			t.Fatal(err)
		}
		if x.Sign() <= 0 || x.Cmp(max) >= 0 {
			t.Fatalf("scalar %v out of [1, 96]", x)
		}
	}
	if _, err := RandScalar(rand.Reader, big.NewInt(1)); err == nil {
		t.Fatal("RandScalar(1) should fail")
	}
}

func TestRandCoprime(t *testing.T) {
	n := big.NewInt(2 * 3 * 5 * 7)
	g := new(big.Int)
	for i := 0; i < 100; i++ {
		x, err := RandCoprime(rand.Reader, n)
		if err != nil {
			t.Fatal(err)
		}
		if g.GCD(nil, nil, x, n); g.Int64() != 1 {
			t.Fatalf("gcd(%v, %v) = %v, want 1", x, n, g)
		}
	}
	if _, err := RandCoprime(rand.Reader, big.NewInt(3)); err == nil {
		t.Fatal("RandCoprime(3) should fail")
	}
}

func TestInverseMod(t *testing.T) {
	p := big.NewInt(101)
	x := big.NewInt(37)
	inv, err := InverseMod(x, p)
	if err != nil {
		t.Fatal(err)
	}
	prod := new(big.Int).Mul(x, inv)
	prod.Mod(prod, p)
	if prod.Int64() != 1 {
		t.Fatalf("x * x^-1 = %v mod %v, want 1", prod, p)
	}
	if _, err := InverseMod(big.NewInt(10), big.NewInt(20)); err == nil {
		t.Fatal("non-invertible element should error")
	}
}

func TestLagrangeZeroRecoversConstantTerm(t *testing.T) {
	p := big.NewInt(7919)
	// f(z) = 42 + 3z + 5z^2
	coeffs := []*big.Int{big.NewInt(42), big.NewInt(3), big.NewInt(5)}
	xs := []*big.Int{big.NewInt(1), big.NewInt(2), big.NewInt(3)}
	ys := make([]*big.Int, len(xs))
	for i, x := range xs {
		ys[i] = EvalPoly(p, coeffs, x)
	}
	got, err := LagrangeZero(p, xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if got.Int64() != 42 {
		t.Fatalf("LagrangeZero = %v, want 42", got)
	}
}

func TestLagrangeZeroErrors(t *testing.T) {
	p := big.NewInt(7919)
	if _, err := LagrangeZero(p, nil, nil); err == nil {
		t.Fatal("empty interpolation should fail")
	}
	if _, err := LagrangeZero(p, []*big.Int{big.NewInt(1)}, nil); err == nil {
		t.Fatal("mismatched lengths should fail")
	}
	xs := []*big.Int{big.NewInt(2), big.NewInt(2)}
	ys := []*big.Int{big.NewInt(1), big.NewInt(2)}
	if _, err := LagrangeZero(p, xs, ys); err == nil {
		t.Fatal("duplicate abscissae should fail")
	}
}

func TestLagrangeZeroQuick(t *testing.T) {
	p := big.NewInt(104729)
	f := func(secret uint32, a, b uint32) bool {
		coeffs := []*big.Int{
			new(big.Int).Mod(big.NewInt(int64(secret)), p),
			new(big.Int).Mod(big.NewInt(int64(a)), p),
			new(big.Int).Mod(big.NewInt(int64(b)), p),
		}
		xs := []*big.Int{big.NewInt(5), big.NewInt(9), big.NewInt(14)}
		ys := make([]*big.Int, len(xs))
		for i, x := range xs {
			ys[i] = EvalPoly(p, coeffs, x)
		}
		got, err := LagrangeZero(p, xs, ys)
		return err == nil && got.Cmp(coeffs[0]) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestEvalPolyHorner(t *testing.T) {
	p := big.NewInt(1009)
	// f(z) = 7 + 2z + z^3 at z=5: 7 + 10 + 125 = 142
	coeffs := []*big.Int{big.NewInt(7), big.NewInt(2), big.NewInt(0), big.NewInt(1)}
	got := EvalPoly(p, coeffs, big.NewInt(5))
	if got.Int64() != 142 {
		t.Fatalf("EvalPoly = %v, want 142", got)
	}
	if got := EvalPoly(p, nil, big.NewInt(5)); got.Sign() != 0 {
		t.Fatalf("empty polynomial should evaluate to 0, got %v", got)
	}
}

func TestCmpZero(t *testing.T) {
	p := big.NewInt(13)
	if !CmpZero(big.NewInt(26), p) {
		t.Fatal("26 mod 13 should be zero")
	}
	if CmpZero(big.NewInt(27), p) {
		t.Fatal("27 mod 13 should be nonzero")
	}
	if !CmpZero(big.NewInt(-13), p) {
		t.Fatal("-13 mod 13 should be zero")
	}
}

func BenchmarkHashToQR(b *testing.B) {
	g := Oakley1024
	data := []byte("glsn=139aef78 time=20:18:35 id=U1 tid=T1100265")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.HashToQR(data)
	}
}

func BenchmarkLagrangeZero(b *testing.B) {
	g := Oakley768
	p := g.P
	const k = 8
	xs := make([]*big.Int, k)
	ys := make([]*big.Int, k)
	coeffs := make([]*big.Int, k)
	for i := range coeffs {
		coeffs[i] = big.NewInt(int64(i*i + 1))
	}
	for i := range xs {
		xs[i] = big.NewInt(int64(i + 1))
		ys[i] = EvalPoly(p, coeffs, xs[i])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := LagrangeZero(p, xs, ys); err != nil {
			b.Fatal(err)
		}
	}
}
