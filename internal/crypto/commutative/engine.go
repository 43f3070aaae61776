package commutative

import (
	"math/big"
	"sync"
	"sync/atomic"

	"confaudit/internal/mathx"
	"confaudit/internal/telemetry"
)

// Fixed-base tables for a node's first-hop encryptions.
//
// In ∩s and ∪s every node encrypts its own encoded set once — the first
// hop of the ring — and re-encrypts every peer's set as it passes. The
// first-hop bases are deterministic encodings (HashToQR of a glsn or of
// glsn|value, union's EmbedElement), so they recur query after query
// while the session keys, and thus the exponents, are always fresh. A
// fixed-base powers table T[i] = M^(16^i) is key-independent, so one
// table serves every later key over the same group.
//
// EncryptFirstHop is the only entry point that consults the cache.
// Relayed ciphertexts are fresh uniform group elements every round and
// never recur, so Encrypt, EncryptInt and EncryptBlocks (the relay
// path) and every decryption run big.Int.Exp without touching it.
//
// A base gets its table on first sight (about one plain
// exponentiation's work) and keeps it for the life of the process;
// once a group's tables fill tableBudget, bases without a table fall
// back to big.Int.Exp. Tables cover exactly the session exponent width
// (Group.ShortExpBits), so a full-width key (NewPHKey with a reader)
// builds none and always takes the plain path.

// tableBudget bounds the bytes of one group's tables: 1,938 tables of
// 3,456 B on the 768-bit group.
const tableBudget = 6_700_000

// baseCache is one group's fixed-base state.
type baseCache struct {
	p       *big.Int
	expBits int // exponent coverage of every table

	mu     sync.Mutex
	tables map[string]*mathx.FixedBase // keyed by the encoded block
	bytes  int                         // sum of the tables' sizes
	full   bool                        // no room for one more table
}

// groupCaches maps *mathx.Group to *baseCache. Groups are long-lived
// singletons (the embedded standard groups, or one generated group per
// test), so keying by pointer avoids serializing the modulus per block.
var groupCaches sync.Map

func cacheFor(g *mathx.Group) *baseCache {
	if c, ok := groupCaches.Load(g); ok {
		return c.(*baseCache)
	}
	c, _ := groupCaches.LoadOrStore(g, &baseCache{
		p:       g.P,
		expBits: g.ShortExpBits(),
		tables:  make(map[string]*mathx.FixedBase),
	})
	return c.(*baseCache)
}

// table returns the table for the encoded block with value m, building
// it on first sight. Once the budget is spent a new base's table is
// still returned for this one evaluation but not kept, and later
// unseen bases get nil. The build runs outside the lock; concurrent
// builders of one base duplicate the (deterministic) work and the
// first store wins.
func (c *baseCache) table(block []byte, m *big.Int) *mathx.FixedBase {
	c.mu.Lock()
	fb, full := c.tables[string(block)], c.full
	c.mu.Unlock()
	if fb != nil || full {
		return fb
	}
	built := mathx.NewFixedBase(m, c.p, c.expBits)
	c.mu.Lock()
	defer c.mu.Unlock()
	if fb := c.tables[string(block)]; fb != nil {
		return fb
	}
	if c.bytes+built.Size() > tableBudget {
		c.full = true
		return built
	}
	c.tables[string(block)] = built
	c.bytes += built.Size()
	return built
}

// EncryptFirstHop encrypts a node's own encoded blocks — the first hop
// of a ring, before any other party has touched them — preserving
// order. It is EncryptBlocks plus the group's fixed-base cache: the
// ciphertexts are byte-identical, only the machine work differs.
// Counts per-block outcomes on crypto.fixedbase_hits /
// fixedbase_misses.
func (k *PHKey) EncryptFirstHop(blocks [][]byte) ([][]byte, error) {
	c := cacheFor(k.group)
	covered := k.e.BitLen() <= c.expBits
	var hits atomic.Int64
	out, err := mapBlocks(blocks, func(block []byte) ([]byte, error) {
		m, err := k.parseBlock(block)
		if err != nil {
			return nil, err
		}
		if covered {
			if r := c.table(block, m).Exp(k.e); r != nil {
				hits.Add(1)
				return k.marshalBlock(r), nil
			}
		}
		return k.marshalBlock(new(big.Int).Exp(m, k.e, k.group.P)), nil
	}, "encrypting")
	if err != nil {
		return nil, err
	}
	served := hits.Load()
	telemetry.M.Counter(telemetry.CtrFixedBaseHits).Add(served)
	telemetry.M.Counter(telemetry.CtrFixedBaseMisses).Add(int64(len(blocks)) - served)
	return out, nil
}

// resetFixedBaseCaches drops every group's cache (tests).
func resetFixedBaseCaches() {
	groupCaches.Range(func(k, _ any) bool {
		groupCaches.Delete(k)
		return true
	})
}
