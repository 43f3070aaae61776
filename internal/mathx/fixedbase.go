package mathx

import (
	"math/big"
	"sync"
)

// Fixed-base windowed exponentiation (Yao's method). A FixedBase
// precomputes the power table
//
//	T[i] = base^(2^(w·i)) mod m,  w = 4
//
// once; every later base^e then costs only multiplications — one per
// nonzero radix-16 digit of e plus 2·15 for the digit-value fold —
// instead of the |e| squarings a general modular exponentiation pays.
// The table build costs about one exponentiation's worth of squarings
// at the covered width, so a base amortizes on its second use.
//
// This is the standard optimization for the DLA hot paths where the
// BASE repeats while the exponent varies: a node encrypting its own
// HashToQR-encoded elements under fresh session keys query after
// query, and folding the agreed accumulator base X0 at the start of
// every integrity circulation.
//
// Construction is one math/big squaring chain for every modulus, odd
// or even: T[i+1] = T[i]^16 as four Mul+QuoRem steps with the
// receivers reused, so a table costs four squarings per digit and no
// per-entry Exp context. Entries are stored and evaluated in canonical
// form with the same Mul+QuoRem fold, so results are bit-identical to
// big.Int.Exp, pinned by the differential tests and FuzzFixedBaseVsBig.
type FixedBase struct {
	mod *big.Int
	// words holds every entry back to back, n words each: entry i,
	// T[i] = base^(16^i) mod m in canonical form, is
	// words[i*n : (i+1)*n]. One pointer-free array per table, read
	// through big.Int views at evaluation time.
	words  []big.Word
	n      int // words per entry: the modulus width
	digits int // entries: the radix-16 digits of exponent coverage
}

const fixedBaseWindow = 4

// NewFixedBase precomputes the powers of base modulo mod covering
// exponents up to maxExpBits bits. base is reduced modulo mod.
func NewFixedBase(base, mod *big.Int, maxExpBits int) *FixedBase {
	if mod == nil || mod.Sign() <= 0 || maxExpBits <= 0 {
		return nil
	}
	digits := (maxExpBits + fixedBaseWindow - 1) / fixedBaseWindow
	n := len(mod.Bits())
	fb := &FixedBase{mod: mod, words: make([]big.Word, digits*n), n: n, digits: digits}
	var cur, prod, q big.Int
	cur.Mod(base, mod)
	for i := 0; i < digits; i++ {
		copy(fb.entryWords(i), cur.Bits())
		if i < digits-1 {
			for s := 0; s < fixedBaseWindow; s++ {
				prod.Mul(&cur, &cur)
				q.QuoRem(&prod, mod, &cur)
			}
		}
	}
	return fb
}

// entryWords returns entry i's words, capped so nothing appended
// through a view can reach entry i+1.
func (fb *FixedBase) entryWords(i int) []big.Word {
	return fb.words[i*fb.n : (i+1)*fb.n : (i+1)*fb.n]
}

// Covers reports whether the table spans exponents of e's width.
func (fb *FixedBase) Covers(e *big.Int) bool {
	return fb != nil && e != nil && e.Sign() >= 0 &&
		(e.BitLen()+fixedBaseWindow-1)/fixedBaseWindow <= fb.digits
}

// Size reports the bytes the table's entries occupy.
func (fb *FixedBase) Size() int { return len(fb.words) * bitsPerWord / 8 }

// fbScratch holds the per-evaluation temporaries of the Yao fold. The
// fold performs ~|e|/4 + 15 modular multiplications; routing each
// reduction through a pooled quotient (QuoRem reuses its receivers'
// storage) instead of Int.Mod (which allocates a fresh quotient every
// call) keeps the fold at a handful of allocations per exponentiation.
type fbScratch struct {
	digits []byte
	a      big.Int // running result; copied out once at the end
	b      big.Int // digit-v product accumulator
	prod   big.Int // unreduced multiplication result
	q      big.Int // discarded quotient of each reduction
	entry  big.Int // read-only view of one table entry
}

var fbScratchPool = sync.Pool{New: func() any { return new(fbScratch) }}

// Exp computes base^e mod m from the table, or nil when the table does
// not cover e (caller falls back to big.Int.Exp). The result is the
// canonical least non-negative residue, identical to big.Int.Exp's.
// Safe for concurrent callers: all mutable state is pooled per call,
// so steady-state evaluations allocate only the returned value.
func (fb *FixedBase) Exp(e *big.Int) *big.Int {
	if !fb.Covers(e) {
		return nil
	}
	if e.Sign() == 0 {
		return new(big.Int).Mod(big.NewInt(1), fb.mod)
	}
	sc := fbScratchPool.Get().(*fbScratch)
	// Radix-16 digits of e, low to high.
	digits := sc.digits[:0]
	for _, w := range e.Bits() {
		for s := 0; s < bitsPerWord; s += fixedBaseWindow {
			digits = append(digits, byte((w>>uint(s))&0xF))
		}
	}
	// Trim high zero digits.
	for len(digits) > 0 && digits[len(digits)-1] == 0 {
		digits = digits[:len(digits)-1]
	}
	// Yao's evaluation: result = Π_{v=15..1} (Π_{d_i=v} T[i])^v,
	// computed as A ← A·B with B accumulating the digit-v products.
	// A and every temporary live in the pooled scratch (so their limb
	// arrays stop growing after warmup); only the returned copy of A is
	// freshly allocated.
	a := sc.a.SetInt64(1)
	b := sc.b.SetInt64(1)
	for v := byte(15); v >= 1; v-- {
		for i, d := range digits {
			if d == v {
				sc.prod.Mul(b, sc.entry.SetBits(fb.entryWords(i)))
				sc.q.QuoRem(&sc.prod, fb.mod, b)
			}
		}
		sc.prod.Mul(a, b)
		sc.q.QuoRem(&sc.prod, fb.mod, a)
	}
	out := new(big.Int).Set(a)
	sc.digits = digits
	sc.entry.SetBits(nil) // drop the view so the pool does not pin the table
	fbScratchPool.Put(sc)
	return out
}

// bitsPerWord is the width of a big.Word on this platform.
const bitsPerWord = 32 << (^big.Word(0) >> 63)
