package commutative

import (
	"testing"
	"time"

	"confaudit/internal/mathx"
)

// TestPooledKeyRoundTripAndCommute checks that pooled short-exponent
// keys are full citizens of the cipher: encrypt/decrypt invert, and
// encryptions under two pooled keys commute (eq. 6).
func TestPooledKeyRoundTripAndCommute(t *testing.T) {
	g := mathx.Oakley768
	pool := NewPool(2)
	k1, err := pool.Key(g)
	if err != nil {
		t.Fatal(err)
	}
	k2, err := pool.Key(g)
	if err != nil {
		t.Fatal(err)
	}
	if k1.e.Cmp(k2.e) == 0 {
		t.Fatal("pool handed out the same exponent twice")
	}
	if want := g.ShortExpBits(); k1.e.BitLen() != want {
		t.Fatalf("pooled exponent has %d bits, want %d", k1.e.BitLen(), want)
	}
	m := k1.EncodeElement([]byte("paper-element-e"))
	c1, err := k1.Encrypt(m)
	if err != nil {
		t.Fatal(err)
	}
	p1, err := k1.Decrypt(c1)
	if err != nil {
		t.Fatal(err)
	}
	if string(p1) != string(m) {
		t.Fatal("pooled key decrypt does not invert encrypt")
	}
	c12, err := k2.Encrypt(c1)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := k2.Encrypt(m)
	if err != nil {
		t.Fatal(err)
	}
	c21, err := k1.Encrypt(c2)
	if err != nil {
		t.Fatal(err)
	}
	if string(c12) != string(c21) {
		t.Fatal("pooled keys do not commute")
	}
}

// TestPoolRefills checks the asynchronous refill restores the target
// after draws.
func TestPoolRefills(t *testing.T) {
	g := mathx.Oakley768
	pool := NewPool(3)
	if _, err := pool.Key(g); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for pool.Len(g) < 3 {
		if time.Now().After(deadline) {
			t.Fatalf("pool stuck at %d ready keys, want 3", pool.Len(g))
		}
		time.Sleep(time.Millisecond)
	}
}
