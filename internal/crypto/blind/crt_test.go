package blind

import (
	"crypto/rand"
	"math/big"
	"testing"
)

// TestCRTSignMatchesPlain pins the CRT signing path to plain x^d mod N,
// with d recomputed from the authority's primes.
func TestCRTSignMatchesPlain(t *testing.T) {
	a, err := NewAuthority(rand.Reader, 1024)
	if err != nil {
		t.Fatal(err)
	}
	one := big.NewInt(1)
	phi := new(big.Int).Mul(new(big.Int).Sub(a.p, one), new(big.Int).Sub(a.q, one))
	d := new(big.Int).ModInverse(a.pub.E, phi)
	msg := []byte("crt-equivalence")
	h := hashToModulus(a.pub, msg)
	plain := new(big.Int).Exp(h, d, a.pub.N)

	sig, err := a.Sign(msg)
	if err != nil {
		t.Fatal(err)
	}
	if sig.Cmp(plain) != 0 {
		t.Fatal("CRT signature differs from plain exponentiation")
	}
	if err := Verify(a.pub, msg, sig); err != nil {
		t.Fatal(err)
	}
}

// TestCRTBlindRoundTrip checks the full blind-sign flow on the CRT path.
func TestCRTBlindRoundTrip(t *testing.T) {
	a, err := NewAuthority(rand.Reader, 1024)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("token-request")
	bl, err := Blind(rand.Reader, a.Public(), msg)
	if err != nil {
		t.Fatal(err)
	}
	bsig, err := a.SignBlinded(bl.Msg)
	if err != nil {
		t.Fatal(err)
	}
	sig, err := bl.Unblind(a.Public(), bsig)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(a.Public(), msg, sig); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSignCRT(b *testing.B) {
	a, err := NewAuthority(rand.Reader, 1024)
	if err != nil {
		b.Fatal(err)
	}
	msg := []byte("bench")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.Sign(msg); err != nil {
			b.Fatal(err)
		}
	}
}
