package accumulator

import (
	"math/big"
	"slices"
)

// Membership witnesses.
//
// A membership witness for item i is the accumulation of every OTHER
// item: w_i = x0^(∏_{j≠i} e_j) mod n, so Accumulate(w_i, item_i)
// reproduces the digest and a holder checks its own item with one
// exponentiation. Witness (accumulator.go) computes w_i by that
// definition, at n−1 exponentiations per item. WitnessExponents instead
// derives every witness's EXPONENT, and the digest's, from big-integer
// products alone; the cluster write path ships those exponents with
// each fragment, and each node materializes its group elements with one
// fixed-base PowX0 the first time a check needs them.

// WitnessExponents returns each item's witness EXPONENT — the product
// of every other item's hash exponent — plus the product of all of
// them. The group elements follow by fixed-base evaluation:
//
//	digest    = PowX0(total)
//	witness_i = PowX0(wexps[i])
//
// and Accumulate(witness_i, items[i]) = X0^(wexps[i]·e_i) = digest.
// Computing the exponents is pure big-integer multiplication (two
// linear product sweeps — no modular exponentiation at all), so a
// write path can derive and ship every node's witness material in
// microseconds and let each holder materialize the group element
// lazily, the first time a verification actually needs it.
func (p *Params) WitnessExponents(items [][]byte) (wexps []*big.Int, total *big.Int) {
	var w WitnessScratch
	return w.Exponents(items)
}

// WitnessScratch holds the big integers WitnessExponents computes in,
// for a caller that derives exponents record after record: kept across
// calls, it stops allocating once its integers have grown to size. The
// zero value is ready for use; it is not safe for concurrent use.
type WitnessScratch struct {
	es, prefix, suffix, wexps []*big.Int
}

// Exponents returns what WitnessExponents returns for items, computed
// in w: the results are w's own integers, valid until the next call.
func (w *WitnessScratch) Exponents(items [][]byte) (wexps []*big.Int, total *big.Int) {
	n := len(items)
	es := grow(&w.es, n)
	for i, it := range items {
		hashInto(es[i], it)
	}
	// prefix[i] = ∏ es[:i], suffix[i] = ∏ es[i:]; wexps[i] skips es[i].
	prefix := grow(&w.prefix, n+1)
	prefix[0].SetInt64(1)
	for i, e := range es {
		prefix[i+1].Mul(prefix[i], e)
	}
	suffix := grow(&w.suffix, n+1)
	suffix[n].SetInt64(1)
	for i := n - 1; i >= 0; i-- {
		suffix[i].Mul(suffix[i+1], es[i])
	}
	wexps = grow(&w.wexps, n)
	for i := range es {
		wexps[i].Mul(prefix[i], suffix[i+1])
	}
	return wexps, prefix[n]
}

// grow returns the first n integers of *s, adding fresh ones as needed
// in one allocation.
func grow(s *[]*big.Int, n int) []*big.Int {
	if k := n - len(*s); k > 0 {
		*s = slices.Grow(*s, k)
		for i, fresh := 0, make([]big.Int, k); i < k; i++ {
			*s = append(*s, &fresh[i])
		}
	}
	return (*s)[:n]
}
