package accumulator

import (
	"bytes"
	"math/big"
	"math/rand"
	"testing"
)

// divides is the integer membership check: H(item) divides dexp.
func divides(dexp *big.Int, item []byte) bool {
	_, r := new(big.Int).QuoRem(dexp, HashItem(item), new(big.Int))
	return r.Sign() == 0
}

// inRecord reports whether item is one of the record's items.
func inRecord(items [][]byte, item []byte) bool {
	for _, it := range items {
		if bytes.Equal(it, item) {
			return true
		}
	}
	return false
}

// eachTampering generates records of one to six fragments and calls fn
// with each record's items, witness exponents and digest exponent, once
// for every fragment as written (tampered false) and once for every
// tampering of it (tampered true): each single-byte change, a wipe to
// the empty item, and a copy of each other fragment of the record. Some
// records repeat a fragment or hold empty ones, as a cluster record
// holds several equal empty fragments when several nodes have no values
// for it. i is the index of the fragment whose tampering is passed as
// item.
func eachTampering(t *testing.T, fn func(items [][]byte, wexps []*big.Int, dexp *big.Int, i int, item []byte, tampered bool)) {
	t.Helper()
	rng := rand.New(rand.NewSource(46))
	for rec := 0; rec < 24; rec++ {
		items := make([][]byte, 1+rng.Intn(6))
		for i := range items {
			switch {
			case i > 0 && rng.Intn(4) == 0:
				items[i] = items[rng.Intn(i)]
			case rng.Intn(4) == 0:
				items[i] = []byte{}
			default:
				items[i] = make([]byte, 1+rng.Intn(40))
				rng.Read(items[i])
			}
		}
		var p Params
		wexps, dexp := p.WitnessExponents(items)
		for i, item := range items {
			fn(items, wexps, dexp, i, item, false)
			forgeries := append([][]byte{{}}, items...)
			for j := range item {
				forged := append([]byte(nil), item...)
				forged[j] ^= byte(1 + rng.Intn(255))
				forgeries = append(forgeries, forged)
			}
			for _, forged := range forgeries {
				if !bytes.Equal(forged, item) {
					fn(items, wexps, dexp, i, forged, true)
				}
			}
		}
	}
}

// TestDivisionCheckAgreesWithWitness is the property behind the local
// integrity check. For random records and every tampering of one
// fragment, it compares "H(f) divides dexp" with the witness check
// Accumulate(w, f) == PowX0(dexp), where the witness w is PowX0 of the
// exponent the writer derived for that fragment (shipped) or of
// dexp/H(f) computed from the fragment in hand (derived). All three
// accept every fragment as written. The shipped witness refuses every
// tampered fragment. The division and the derived witness always agree
// with each other, and they accept a tampered fragment exactly when it
// equals another fragment of the same record: that is why the local
// check gives no verdict on an empty fragment, the one fragment two
// nodes of a record can share.
func TestDivisionCheckAgreesWithWitness(t *testing.T) {
	p := testParams(t)
	checked, copies := 0, 0
	eachTampering(t, func(items [][]byte, wexps []*big.Int, dexp *big.Int, i int, item []byte, tampered bool) {
		digest := p.PowX0(dexp)
		verifies := func(wexp *big.Int) bool { return p.Accumulate(p.PowX0(wexp), item).Cmp(digest) == 0 }
		div := divides(dexp, item)
		shipped := verifies(wexps[i])
		derived := verifies(new(big.Int).Quo(dexp, HashItem(item)))
		member := inRecord(items, item)
		if div != member || derived != member || shipped != !tampered {
			t.Fatalf("fragment %d (tampered %v, in record %v): division %v, shipped witness %v, derived witness %v", i, tampered, member, div, shipped, derived)
		}
		checked++
		if tampered && member {
			copies++
		}
	})
	if copies == 0 {
		t.Fatal("no tampering copied another fragment of its record")
	}
	t.Logf("%d fragments checked, %d of them copies of another fragment of the record", checked, copies)
}
