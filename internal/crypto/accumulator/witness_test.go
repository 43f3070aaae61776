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
// equals the accumulation of every other item, PowX0 of the total
// equals the digest, and every materialized witness takes its item to
// the digest.
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
			others := append(append([][]byte(nil), items[:i]...), items[i+1:]...)
			w := p.PowX0(wexps[i])
			if w.Cmp(p.AccumulateAll(others)) != 0 {
				t.Fatalf("n=%d: materialized witness %d diverges from definition", n, i)
			}
			if p.Accumulate(w, items[i]).Cmp(digest) != 0 {
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

// BenchmarkDigestExponent measures the cluster write path's
// accumulator work per record: the digest exponent of a 4-node record's
// fragments, in reused scratch, plus its fixed-base digest evaluation.
func BenchmarkDigestExponent(b *testing.B) {
	p := testParams(b)
	items := witnessItems(4) // fragments of a 4-node record
	p.PowX0(big.NewInt(3))   // build the narrow table outside the timer
	var s DigestScratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if p.PowX0(s.Exponent(items)) == nil {
			b.Fatal("nil digest")
		}
	}
}
