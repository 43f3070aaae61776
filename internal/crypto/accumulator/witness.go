package accumulator

import "math/big"

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
	n := len(items)
	if n == 0 {
		return nil, big.NewInt(1)
	}
	es := make([]*big.Int, n)
	for i, it := range items {
		es[i] = HashItem(it)
	}
	// prefix[i] = ∏ es[:i], suffix[i] = ∏ es[i:]; wexps[i] skips es[i].
	prefix := make([]*big.Int, n+1)
	prefix[0] = big.NewInt(1)
	for i, e := range es {
		prefix[i+1] = new(big.Int).Mul(prefix[i], e)
	}
	suffix := make([]*big.Int, n+1)
	suffix[n] = big.NewInt(1)
	for i := n - 1; i >= 0; i-- {
		suffix[i] = new(big.Int).Mul(suffix[i+1], es[i])
	}
	wexps = make([]*big.Int, n)
	for i := range es {
		wexps[i] = new(big.Int).Mul(prefix[i], suffix[i+1])
	}
	return wexps, prefix[n]
}
