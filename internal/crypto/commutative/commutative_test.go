package commutative

import (
	"bytes"
	"crypto/rand"
	"math/big"
	"testing"
	"testing/quick"

	"confaudit/internal/mathx"
)

func testGroup() *mathx.Group { return mathx.Oakley768 }

func mustPHKey(t testing.TB, g *mathx.Group) *PHKey {
	t.Helper()
	k, err := NewPHKey(rand.Reader, g)
	if err != nil {
		t.Fatalf("NewPHKey: %v", err)
	}
	return k
}

func TestPHRoundTripInt(t *testing.T) {
	g := testGroup()
	k := mustPHKey(t, g)
	m := g.HashToQR([]byte("event log record"))
	c, err := k.EncryptInt(m)
	if err != nil {
		t.Fatal(err)
	}
	if c.Cmp(m) == 0 {
		t.Fatal("ciphertext equals plaintext")
	}
	back, err := k.DecryptInt(c)
	if err != nil {
		t.Fatal(err)
	}
	if back.Cmp(m) != 0 {
		t.Fatalf("decrypt(encrypt(m)) = %v, want %v", back, m)
	}
}

// TestPHCommutativityEq6 checks eq. (6): for any permutation of key
// applications the final ciphertext is identical.
func TestPHCommutativityEq6(t *testing.T) {
	g := testGroup()
	k1, k2, k3 := mustPHKey(t, g), mustPHKey(t, g), mustPHKey(t, g)
	m := g.HashToQR([]byte("e")) // the element from Figure 4

	apply := func(order ...*PHKey) *big.Int {
		c := new(big.Int).Set(m)
		for _, k := range order {
			var err error
			if c, err = k.EncryptInt(c); err != nil {
				t.Fatal(err)
			}
		}
		return c
	}
	// E132, E321, E213 from Figure 4 must coincide.
	e132 := apply(k2, k3, k1) // innermost first: E1(E3(E2(m))) read right-to-left
	e321 := apply(k1, k2, k3)
	e213 := apply(k3, k1, k2)
	if e132.Cmp(e321) != 0 || e321.Cmp(e213) != 0 {
		t.Fatal("eq. (6) violated: permuted encryption orders disagree")
	}
}

// TestPHDecryptAnyOrder checks that the n matched keys decrypt in any
// order, the property the paper uses to recover plaintexts of the
// intersection/union outputs.
func TestPHDecryptAnyOrder(t *testing.T) {
	g := testGroup()
	k1, k2, k3 := mustPHKey(t, g), mustPHKey(t, g), mustPHKey(t, g)
	m := g.HashToQR([]byte("glsn 139aef82"))

	c := new(big.Int).Set(m)
	for _, k := range []*PHKey{k1, k2, k3} {
		var err error
		if c, err = k.EncryptInt(c); err != nil {
			t.Fatal(err)
		}
	}
	// Decrypt in a different order than encryption.
	for _, k := range []*PHKey{k2, k1, k3} {
		var err error
		if c, err = k.DecryptInt(c); err != nil {
			t.Fatal(err)
		}
	}
	if c.Cmp(m) != 0 {
		t.Fatal("out-of-order decryption failed to recover plaintext")
	}
}

// TestSessionKeyRoundTripAndCommute checks that session keys are full
// citizens of the cipher: two draws differ, the encryption exponent is
// ShortExpBits wide, encrypt/decrypt invert, and encryptions under two
// session keys commute (eq. 6).
func TestSessionKeyRoundTripAndCommute(t *testing.T) {
	g := mathx.Oakley768
	k1, err := NewSessionKey(g)
	if err != nil {
		t.Fatal(err)
	}
	k2, err := NewSessionKey(g)
	if err != nil {
		t.Fatal(err)
	}
	if k1.e.Cmp(k2.e) == 0 {
		t.Fatal("two session keys drew the same exponent")
	}
	if want := g.ShortExpBits(); k1.e.BitLen() != want {
		t.Fatalf("session exponent has %d bits, want %d", k1.e.BitLen(), want)
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
		t.Fatal("session key decrypt does not invert encrypt")
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
		t.Fatal("session keys do not commute")
	}
}

// TestPHCompose checks that a composed key encrypts like its two keys
// applied in turn and strips both layers in one decryption.
func TestPHCompose(t *testing.T) {
	g := testGroup()
	k1 := mustPHKey(t, g)
	k2, err := NewSessionKey(g)
	if err != nil {
		t.Fatal(err)
	}
	both, err := k1.Compose(k2)
	if err != nil {
		t.Fatal(err)
	}
	m := g.HashToQR([]byte("f"))
	c1, err := k1.EncryptInt(m)
	if err != nil {
		t.Fatal(err)
	}
	c12, err := k2.EncryptInt(c1)
	if err != nil {
		t.Fatal(err)
	}
	if c, err := both.EncryptInt(m); err != nil || c.Cmp(c12) != 0 {
		t.Fatalf("composed encryption = %v, %v; want the two layers applied in turn", c, err)
	}
	if back, err := both.DecryptInt(c12); err != nil || back.Cmp(m) != 0 {
		t.Fatalf("composed decryption = %v, %v; want the plaintext", back, err)
	}
	if _, err := k1.Compose(mustPHKey(t, mathx.Oakley1024)); err == nil {
		t.Fatal("composing keys over different groups succeeded")
	}
}

// TestPHDistinctPlaintextsStayDistinct is the eq. (7) requirement: the
// multi-key encryptions of distinct messages must not collide.
func TestPHDistinctPlaintextsStayDistinct(t *testing.T) {
	g := testGroup()
	k1, k2 := mustPHKey(t, g), mustPHKey(t, g)
	seen := make(map[string]string)
	for _, s := range []string{"c", "d", "e", "f", "g", "h"} {
		c := g.HashToQR([]byte(s))
		for _, k := range []*PHKey{k1, k2} {
			var err error
			if c, err = k.EncryptInt(c); err != nil {
				t.Fatal(err)
			}
		}
		key := c.String()
		if prev, dup := seen[key]; dup {
			t.Fatalf("ciphertext collision between %q and %q", prev, s)
		}
		seen[key] = s
	}
}

func TestPHRejectsBadElements(t *testing.T) {
	g := testGroup()
	k := mustPHKey(t, g)
	for _, m := range []*big.Int{nil, big.NewInt(0), big.NewInt(-3), new(big.Int).Set(g.P)} {
		if _, err := k.EncryptInt(m); err == nil {
			t.Fatalf("EncryptInt(%v) accepted a non-element", m)
		}
		if _, err := k.DecryptInt(m); err == nil {
			t.Fatalf("DecryptInt(%v) accepted a non-element", m)
		}
	}
}

func TestPHBlockInterface(t *testing.T) {
	g := testGroup()
	k := mustPHKey(t, g)
	if k.BlockSize() != 96 {
		t.Fatalf("BlockSize = %d, want 96 for a 768-bit modulus", k.BlockSize())
	}
	block := k.EncodeElement([]byte("salary"))
	if len(block) != k.BlockSize() {
		t.Fatalf("EncodeElement width %d, want %d", len(block), k.BlockSize())
	}
	enc, err := k.Encrypt(block)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := k.Decrypt(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dec, block) {
		t.Fatal("block round trip failed")
	}
	if _, err := k.Encrypt([]byte("short")); err == nil {
		t.Fatal("wrong-size block accepted")
	}
	zero := make([]byte, k.BlockSize())
	if _, err := k.Encrypt(zero); err == nil {
		t.Fatal("zero block (not a group element) accepted")
	}
}

func TestPHEncodeElementDeterministicAcrossKeys(t *testing.T) {
	g := testGroup()
	k1, k2 := mustPHKey(t, g), mustPHKey(t, g)
	// Different nodes must encode the same plaintext identically or the
	// intersection protocol cannot match elements.
	if !bytes.Equal(k1.EncodeElement([]byte("T1100265")), k2.EncodeElement([]byte("T1100265"))) {
		t.Fatal("EncodeElement differs across keys on same group")
	}
}

// encryptEntryPoints are the two batch encryptions: the relay path and
// the first hop through the fixed-base cache.
func encryptEntryPoints(k *PHKey) map[string]func([][]byte) ([][]byte, error) {
	return map[string]func([][]byte) ([][]byte, error){
		"EncryptBlocks":   k.EncryptBlocks,
		"EncryptFirstHop": k.EncryptFirstHop,
	}
}

func TestEncryptBlocksDecryptBlocks(t *testing.T) {
	g := testGroup()
	k := mustPHKey(t, g)
	blocks := [][]byte{
		k.EncodeElement([]byte("c")),
		k.EncodeElement([]byte("d")),
		k.EncodeElement([]byte("e")),
	}
	bad := [][]byte{make([]byte, 3)}
	for name, encrypt := range encryptEntryPoints(k) {
		enc, err := encrypt(blocks)
		if err != nil {
			t.Fatal(err)
		}
		if len(enc) != len(blocks) {
			t.Fatalf("%s returned %d blocks, want %d", name, len(enc), len(blocks))
		}
		dec, err := k.DecryptBlocks(enc)
		if err != nil {
			t.Fatal(err)
		}
		for i := range blocks {
			if !bytes.Equal(dec[i], blocks[i]) {
				t.Fatalf("%s: block %d did not round trip", name, i)
			}
		}
		if _, err := encrypt(bad); err == nil {
			t.Fatalf("%s accepted invalid block", name)
		}
	}
	if _, err := k.DecryptBlocks(bad); err == nil {
		t.Fatal("DecryptBlocks accepted invalid block")
	}
}

// TestPHQuickCommutes property-tests eq. (6) on random plaintext bytes.
func TestPHQuickCommutes(t *testing.T) {
	g := testGroup()
	k1 := mustPHKey(t, g)
	k2 := mustPHKey(t, g)
	f := func(data []byte) bool {
		m := g.HashToQR(data)
		a, err1 := k1.EncryptInt(m)
		if err1 != nil {
			return false
		}
		a, err1 = k2.EncryptInt(a)
		b, err2 := k2.EncryptInt(m)
		if err2 != nil {
			return false
		}
		b, err2 = k1.EncryptInt(b)
		return err1 == nil && err2 == nil && a.Cmp(b) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestEncryptBlocksParallelLargeBatch crosses the parallel threshold on
// both encryption entry points and checks order preservation and error
// propagation.
func TestEncryptBlocksParallelLargeBatch(t *testing.T) {
	g := testGroup()
	k := mustPHKey(t, g)
	const n = 37 // > parallelThreshold, not a multiple of core counts
	blocks := make([][]byte, n)
	for i := range blocks {
		blocks[i] = k.EncodeElement([]byte{byte(i), byte(i >> 3)})
	}
	// An invalid block anywhere in a large batch surfaces as an error.
	bad := make([][]byte, n)
	copy(bad, blocks)
	bad[n-2] = make([]byte, k.BlockSize()) // zero: not a group element
	for name, encrypt := range encryptEntryPoints(k) {
		enc, err := encrypt(blocks)
		if err != nil {
			t.Fatal(err)
		}
		// Order preserved: decrypting index i yields block i.
		dec, err := k.DecryptBlocks(enc)
		if err != nil {
			t.Fatal(err)
		}
		for i := range blocks {
			if !bytes.Equal(dec[i], blocks[i]) {
				t.Fatalf("%s: block %d out of order after parallel batch", name, i)
			}
		}
		if _, err := encrypt(bad); err == nil {
			t.Fatalf("%s: invalid block in parallel batch accepted", name)
		}
	}
}

// BenchmarkPHFirstHop768 is one first-hop block with its table hot:
// the cost a node pays to encrypt an encoding it has encrypted before,
// under a fresh session key each time.
func BenchmarkPHFirstHop768(b *testing.B) {
	g := mathx.Oakley768
	keys := shortKeys(b, g, 8)
	blocks := [][]byte{keys[0].EncodeElement([]byte("bench element"))}
	if _, err := keys[0].EncryptFirstHop(blocks); err != nil { // build the table
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := keys[i%len(keys)].EncryptFirstHop(blocks); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPHRelay768 is one relayed block under a session key: a fresh
// ciphertext from another party, which no table can serve.
func BenchmarkPHRelay768(b *testing.B) {
	g := mathx.Oakley768
	keys := shortKeys(b, g, 8)
	peer, err := NewSessionKey(g)
	if err != nil {
		b.Fatal(err)
	}
	relayed, err := peer.EncryptBlocks(prefixedBlocks(peer, "relayed", 64))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := keys[i%len(keys)].EncryptBlocks(relayed[i%len(relayed) : i%len(relayed)+1]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPHEncrypt768(b *testing.B)  { benchPHEncrypt(b, mathx.Oakley768) }
func BenchmarkPHEncrypt1024(b *testing.B) { benchPHEncrypt(b, mathx.Oakley1024) }
func BenchmarkPHEncrypt2048(b *testing.B) { benchPHEncrypt(b, mathx.MODP2048) }

func benchPHEncrypt(b *testing.B, g *mathx.Group) {
	k := mustPHKey(b, g)
	m := g.HashToQR([]byte("bench element"))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := k.EncryptInt(m); err != nil {
			b.Fatal(err)
		}
	}
}
