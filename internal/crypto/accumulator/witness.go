package accumulator

import "math/big"

// Digest exponents and witnesses.
//
// A record's digest is X0^dexp, where dexp = ∏ e_i is the product of
// its items' hash exponents. A membership witness for item i is the
// accumulation of every OTHER item: w_i = X0^(dexp/e_i) mod n, so
// Accumulate(w_i, item_i) reproduces the digest. The cluster write path
// ships each record's dexp alone (DigestScratch) and materializes
// X0^dexp only where a group element is needed: circulation and
// provenance.

// WitnessExponents returns each item's witness EXPONENT — the product
// of every other item's hash exponent — plus the product of all of
// them. The group elements follow by fixed-base evaluation:
//
//	digest    = PowX0(total)
//	witness_i = PowX0(wexps[i])
//
// and Accumulate(witness_i, items[i]) = X0^(wexps[i]·e_i) = digest.
// Each witness exponent is a prefix product times a suffix product,
// which is cheaper than dividing it out of the total.
func (p *Params) WitnessExponents(items [][]byte) (wexps []*big.Int, total *big.Int) {
	n := len(items)
	es := make([]*big.Int, n)
	for i, it := range items {
		es[i] = HashItem(it)
	}
	suffix := make([]*big.Int, n+1) // suffix[i] = ∏ es[i:]
	suffix[n] = big.NewInt(1)
	for i := n - 1; i >= 0; i-- {
		suffix[i] = new(big.Int).Mul(suffix[i+1], es[i])
	}
	prefix := big.NewInt(1) // ∏ es[:i]
	for i, e := range es {
		wexps = append(wexps, new(big.Int).Mul(prefix, suffix[i+1]))
		prefix = new(big.Int).Mul(prefix, e)
	}
	return wexps, suffix[0]
}

// DigestScratch holds the big integers a digest exponent is computed
// in, for a caller that derives exponents record after record: kept
// across calls, it stops allocating once its integers have grown to
// size. The zero value is ready for use; it is not safe for concurrent
// use.
type DigestScratch struct {
	e    big.Int
	prod [2]big.Int // the running product and the next one, in turn
}

// Exponent returns the product of items' hash exponents, the exponent
// of their digest, computed in s: the result is s's own integer, valid
// until the next call.
func (s *DigestScratch) Exponent(items [][]byte) *big.Int {
	cur, next := &s.prod[0], &s.prod[1]
	cur.SetInt64(1)
	for _, it := range items {
		next.Mul(cur, hashInto(&s.e, it))
		cur, next = next, cur
	}
	return cur
}
