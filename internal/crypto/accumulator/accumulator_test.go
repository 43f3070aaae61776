package accumulator

import (
	"math/big"
	"math/rand/v2"
	"testing"
	"testing/quick"

	crand "crypto/rand"
)

func testParams(t testing.TB) *Params {
	t.Helper()
	p, err := GenerateParams(crand.Reader, 256)
	if err != nil {
		t.Fatalf("GenerateParams: %v", err)
	}
	return p
}

func TestGenerateParamsValid(t *testing.T) {
	p := testParams(t)
	if err := p.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if p.N.BitLen() < 250 {
		t.Fatalf("modulus only %d bits", p.N.BitLen())
	}
	if _, err := GenerateParams(crand.Reader, 8); err == nil {
		t.Fatal("tiny modulus accepted")
	}
}

func TestValidateRejectsBadParams(t *testing.T) {
	good := testParams(t)
	cases := []struct {
		name string
		p    *Params
	}{
		{"nil", nil},
		{"nil N", &Params{X0: big.NewInt(2)}},
		{"nil X0", &Params{N: good.N}},
		{"small N", &Params{N: big.NewInt(4), X0: big.NewInt(2)}},
		{"zero base", &Params{N: good.N, X0: big.NewInt(0)}},
		{"base >= N", &Params{N: good.N, X0: new(big.Int).Set(good.N)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.p.Validate(); err == nil {
				t.Fatal("Validate accepted bad params")
			}
		})
	}
}

// TestOrderIndependenceEq9 verifies the paper's eq. (9): accumulation is
// order independent.
func TestOrderIndependenceEq9(t *testing.T) {
	p := testParams(t)
	items := [][]byte{[]byte("y1"), []byte("y2"), []byte("y3"), []byte("y4")}
	want := p.AccumulateAll(items)

	perm := [][]byte{items[2], items[0], items[3], items[1]}
	if got := p.AccumulateAll(perm); got.Cmp(want) != 0 {
		t.Fatal("eq. (9) violated: permuted accumulation differs")
	}
}

func TestOrderIndependenceQuick(t *testing.T) {
	p := testParams(t)
	f := func(seed uint64, a, b, c, d []byte) bool {
		items := [][]byte{a, b, c, d}
		want := p.AccumulateAll(items)
		r := rand.New(rand.NewPCG(seed, 1))
		r.Shuffle(len(items), func(i, j int) { items[i], items[j] = items[j], items[i] })
		return p.AccumulateAll(items).Cmp(want) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyDetectsTampering(t *testing.T) {
	p := testParams(t)
	items := [][]byte{[]byte("frag P0"), []byte("frag P1"), []byte("frag P2")}
	digest := p.AccumulateAll(items)
	if !p.Verify(digest, items) {
		t.Fatal("Verify rejected honest digest")
	}
	tampered := [][]byte{[]byte("frag P0"), []byte("frag P1 MODIFIED"), []byte("frag P2")}
	if p.Verify(digest, tampered) {
		t.Fatal("Verify accepted tampered fragment")
	}
	if p.Verify(digest, items[:2]) {
		t.Fatal("Verify accepted dropped fragment")
	}
	if p.Verify(nil, items) {
		t.Fatal("Verify accepted nil digest")
	}
}

func TestHashItemProperties(t *testing.T) {
	a := HashItem([]byte("x"))
	b := HashItem([]byte("x"))
	if a.Cmp(b) != 0 {
		t.Fatal("HashItem not deterministic")
	}
	if a.Bit(0) != 1 {
		t.Fatal("HashItem output not odd")
	}
	if a.BitLen() != 256 {
		t.Fatalf("HashItem output %d bits, want 256", a.BitLen())
	}
	if HashItem([]byte("y")).Cmp(a) == 0 {
		t.Fatal("distinct items collided")
	}
}

// TestWitness checks membership witnesses, the accumulation of every
// other item: each one's materialized element takes its own item to the
// digest and refuses a forged one.
func TestWitness(t *testing.T) {
	p := testParams(t)
	items := [][]byte{[]byte("log0"), []byte("log1"), []byte("log2"), []byte("log3")}
	digest := p.AccumulateAll(items)
	wexps, _ := p.WitnessExponents(items)
	for i, it := range items {
		w := p.PowX0(wexps[i])
		if p.Accumulate(w, it).Cmp(digest) != 0 {
			t.Fatalf("witness for item %d rejected", i)
		}
		if p.Accumulate(w, []byte("forged")).Cmp(digest) == 0 {
			t.Fatalf("witness for item %d accepted a forged item", i)
		}
	}
}

func TestAccumulateAllEmpty(t *testing.T) {
	p := testParams(t)
	if p.AccumulateAll(nil).Cmp(p.X0) != 0 {
		t.Fatal("empty accumulation should equal the base X0")
	}
}

func BenchmarkAccumulate(b *testing.B) {
	p, err := GenerateParams(crand.Reader, 1024)
	if err != nil {
		b.Fatal(err)
	}
	item := []byte("glsn=139aef78|time=20:18:35|id=U1")
	x := new(big.Int).Set(p.X0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x = p.Accumulate(x, item)
	}
}

func BenchmarkAccumulateAll16(b *testing.B) {
	p, err := GenerateParams(crand.Reader, 1024)
	if err != nil {
		b.Fatal(err)
	}
	items := make([][]byte, 16)
	for i := range items {
		items[i] = []byte{byte(i), 0xA5}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.AccumulateAll(items)
	}
}

// TestAccumulateX0TableMatchesPlain pins the cached X0 fixed-base path
// to the plain exponentiation.
func TestAccumulateX0TableMatchesPlain(t *testing.T) {
	p, err := GenerateParams(crand.Reader, 512)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		item := []byte{byte(i), 0xAB}
		got := p.Accumulate(p.X0, item)
		want := new(big.Int).Exp(p.X0, HashItem(item), p.N)
		if got.Cmp(want) != 0 {
			t.Fatalf("item %d: X0 table path %v != plain %v", i, got, want)
		}
		// A value-equal but distinct base also takes the table path.
		alias := new(big.Int).Set(p.X0)
		if got := p.Accumulate(alias, item); got.Cmp(want) != 0 {
			t.Fatalf("item %d: aliased X0 diverged", i)
		}
		// Non-X0 bases take the plain path.
		other := new(big.Int).Add(p.X0, big.NewInt(1))
		wantOther := new(big.Int).Exp(other, HashItem(item), p.N)
		if got := p.Accumulate(other, item); got.Cmp(wantOther) != 0 {
			t.Fatalf("item %d: non-X0 base diverged", i)
		}
	}
}
