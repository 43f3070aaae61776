package accumulator

import (
	"fmt"
	"math/big"
	"testing"
)

func witnessItems(n int) [][]byte {
	items := make([][]byte, n)
	for i := range items {
		items[i] = []byte(fmt.Sprintf("y%03d", i))
	}
	return items
}

// TestWitnessExponentsMatchesDefinition pins the exponent-product path
// against the group-element definition: PowX0 of each witness exponent
// equals the per-index Witness, PowX0 of the total equals the digest,
// and every materialized witness verifies.
func TestWitnessExponentsMatchesDefinition(t *testing.T) {
	p := testParams(t)
	for _, n := range []int{1, 2, 3, 4, 5, 9} {
		items := witnessItems(n)
		wexps, total := p.WitnessExponents(items)
		if len(wexps) != n {
			t.Fatalf("n=%d: got %d witness exponents", n, len(wexps))
		}
		digest := p.PowX0(total)
		if digest.Cmp(p.AccumulateAll(items)) != 0 {
			t.Fatalf("n=%d: PowX0(total) diverges from AccumulateAll", n)
		}
		for i := range items {
			want, err := p.Witness(items, i)
			if err != nil {
				t.Fatal(err)
			}
			w := p.PowX0(wexps[i])
			if w.Cmp(want) != 0 {
				t.Fatalf("n=%d: materialized witness %d diverges from definition", n, i)
			}
			if !p.VerifyWitness(digest, w, items[i]) {
				t.Fatalf("n=%d: materialized witness %d does not verify", n, i)
			}
		}
	}
	wexps, total := p.WitnessExponents(nil)
	if wexps != nil || total.Cmp(big.NewInt(1)) != 0 {
		t.Fatal("empty set: want no witness exponents and total 1")
	}
	if p.PowX0(total).Cmp(p.X0) != 0 {
		t.Fatal("empty-set digest is not X0")
	}
}

// BenchmarkWitnessExponents measures the cluster write path's witness
// derivation: exponent products for every fragment plus the fixed-base
// digest evaluation. The whole point of shipping exponents is that this
// costs about as much as the digest alone used to.
func BenchmarkWitnessExponents(b *testing.B) {
	p := testParams(b)
	items := witnessItems(4) // fragments of a 4-node record
	p.PowX0(big.NewInt(3))   // build the narrow table outside the timer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wexps, total := p.WitnessExponents(items)
		if len(wexps) != len(items) {
			b.Fatal("bad witness exponent count")
		}
		if p.PowX0(total) == nil {
			b.Fatal("nil digest")
		}
	}
}
