package commutative

import (
	"bytes"
	"fmt"
	"math/big"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"confaudit/internal/mathx"
	"confaudit/internal/telemetry"
	"confaudit/internal/workpool"
)

// testKeys returns a deterministic full-width key and a session
// short-exponent key over the group.
func testKeys(t *testing.T, g *mathx.Group) []*PHKey {
	t.Helper()
	det, err := NewPHKey(rand.New(rand.NewSource(7)), g)
	if err != nil {
		t.Fatal(err)
	}
	short, err := NewSessionKey(g)
	if err != nil {
		t.Fatal(err)
	}
	return []*PHKey{det, short}
}

func testBlocks(key *PHKey, n int) [][]byte {
	return prefixedBlocks(key, "element", n)
}

func prefixedBlocks(key *PHKey, prefix string, n int) [][]byte {
	blocks := make([][]byte, n)
	for i := range blocks {
		blocks[i] = key.EncodeElement([]byte(fmt.Sprintf("%s-%d", prefix, i)))
	}
	return blocks
}

func shortKeys(t testing.TB, g *mathx.Group, n int) []*PHKey {
	t.Helper()
	keys := make([]*PHKey, n)
	for i := range keys {
		k, err := NewSessionKey(g)
		if err != nil {
			t.Fatal(err)
		}
		keys[i] = k
	}
	return keys
}

// plainEncrypt is the reference ciphertext: the raw exponentiation,
// bypassing every cache.
func plainEncrypt(t *testing.T, k *PHKey, block []byte) []byte {
	t.Helper()
	m, err := k.parseBlock(block)
	if err != nil {
		t.Fatal(err)
	}
	return k.marshalBlock(new(big.Int).Exp(m, k.e, k.group.P))
}

// cacheStats reports the group's table count and table bytes.
func cacheStats(g *mathx.Group) (tables, size int) {
	c := cacheFor(g)
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.tables), c.bytes
}

// TestEncryptBlocksMatchesSerial pins both batch entry points to the
// serial loop byte for byte, for worker counts 1, 4, and GOMAXPROCS,
// for both full-width and short-exponent session keys. Run under -race
// by the pre-merge gate.
func TestEncryptBlocksMatchesSerial(t *testing.T) {
	defer func(p *workpool.Pool) { pool = p }(pool)
	g := mathx.Oakley768
	for _, key := range testKeys(t, g) {
		blocks := testBlocks(key, 37)
		want := make([][]byte, len(blocks))
		for i, b := range blocks {
			enc, err := key.Encrypt(b)
			if err != nil {
				t.Fatal(err)
			}
			want[i] = enc
		}
		for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
			pool = workpool.New(workers)
			got, err := key.EncryptBlocks(blocks)
			if err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
			first, err := key.EncryptFirstHop(blocks)
			if err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
			for i := range want {
				if !bytes.Equal(got[i], want[i]) {
					t.Fatalf("workers=%d: block %d differs from serial encryption", workers, i)
				}
				if !bytes.Equal(first[i], want[i]) {
					t.Fatalf("workers=%d: first-hop block %d differs from serial encryption", workers, i)
				}
			}
			dec, err := key.DecryptBlocks(got)
			if err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
			for i := range blocks {
				if !bytes.Equal(dec[i], blocks[i]) {
					t.Fatalf("workers=%d: DecryptBlocks does not invert block %d", workers, i)
				}
			}
		}
	}
}

// TestFixedBaseTableMatchesPlainExp pins the first-hop entry point to
// plain Exp: encryptions of a block must be identical on the 1st
// sighting (table just built), the 2nd (first reuse), and the 20th
// (table hot), under three independent session keys. A full-width key
// must fall back to plain Exp and build no table.
func TestFixedBaseTableMatchesPlainExp(t *testing.T) {
	resetFixedBaseCaches()
	defer resetFixedBaseCaches()
	g := mathx.Oakley768
	keys := shortKeys(t, g, 3)
	blocks := testBlocks(keys[0], 9)
	for round := 1; round <= 20; round++ {
		for _, k := range keys {
			got, err := k.EncryptFirstHop(blocks)
			if err != nil {
				t.Fatal(err)
			}
			for i, b := range blocks {
				if want := plainEncrypt(t, k, b); !bytes.Equal(got[i], want) {
					t.Fatalf("sighting %d key %p block %d: table path diverged from plain Exp", round, k, i)
				}
			}
		}
		if tables, _ := cacheStats(g); tables != len(blocks) {
			t.Fatalf("sighting %d: %d tables for %d stable bases", round, tables, len(blocks))
		}
	}

	wide := testKeys(t, g)[0]
	fresh := prefixedBlocks(wide, "full-width", 5)
	got, err := wide.EncryptFirstHop(fresh)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range fresh {
		if want := plainEncrypt(t, wide, b); !bytes.Equal(got[i], want) {
			t.Fatalf("full-width key block %d diverged from plain Exp", i)
		}
	}
	if tables, _ := cacheStats(g); tables != len(blocks) {
		t.Fatalf("a full-width key built tables: %d, want %d", tables, len(blocks))
	}
}

// TestFirstHopCounters pins the registry view of the cache: a session
// key's batch is table-served (every block a hit), a full-width key's
// batch is all misses.
func TestFirstHopCounters(t *testing.T) {
	resetFixedBaseCaches()
	defer resetFixedBaseCaches()
	g := mathx.Oakley768
	counters := func() (hits, misses int64) {
		c := telemetry.M.Snapshot().Counters
		return c[telemetry.CtrFixedBaseHits], c[telemetry.CtrFixedBaseMisses]
	}
	keys := testKeys(t, g)
	wide, short := keys[0], keys[1]
	blocks := testBlocks(short, 6)

	h0, m0 := counters()
	if _, err := short.EncryptFirstHop(blocks); err != nil {
		t.Fatal(err)
	}
	h1, m1 := counters()
	if h1-h0 != int64(len(blocks)) || m1 != m0 {
		t.Fatalf("session key: hits +%d misses +%d, want +%d +0", h1-h0, m1-m0, len(blocks))
	}
	if _, err := wide.EncryptFirstHop(blocks); err != nil {
		t.Fatal(err)
	}
	h2, m2 := counters()
	if h2 != h1 || m2-m1 != int64(len(blocks)) {
		t.Fatalf("full-width key: hits +%d misses +%d, want +0 +%d", h2-h1, m2-m1, len(blocks))
	}
}

// TestFixedBaseCacheBounded floods the cache with one-shot encodings
// and checks the table bytes never exceed the budget. Past the budget,
// new bases still encrypt correctly (from a table built and dropped, or
// plain Exp) and the bases that made it in keep their tables.
func TestFixedBaseCacheBounded(t *testing.T) {
	resetFixedBaseCaches()
	defer resetFixedBaseCaches()
	g := mathx.Oakley768
	k := shortKeys(t, g, 1)[0]
	perTable := mathx.NewFixedBase(big.NewInt(2), g.P, g.ShortExpBits()).Size()
	fits := tableBudget / perTable
	const batch = 64
	var first [][]byte
	for n := 0; n < fits+2*batch; n += batch {
		blocks := prefixedBlocks(k, fmt.Sprintf("oneshot-%d", n), batch)
		if first == nil {
			first = blocks
		}
		if _, err := k.EncryptFirstHop(blocks); err != nil {
			t.Fatal(err)
		}
		if _, size := cacheStats(g); size > tableBudget {
			t.Fatalf("after %d encodings the tables hold %d bytes, budget is %d", n+batch, size, tableBudget)
		}
	}
	tables, _ := cacheStats(g)
	if tables != fits {
		t.Fatalf("flooded cache holds %d tables, want the %d that fit the budget", tables, fits)
	}
	over := prefixedBlocks(k, "past-budget", 3)
	got, err := k.EncryptFirstHop(append(over, first[0]))
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range append(over, first[0]) {
		if want := plainEncrypt(t, k, b); !bytes.Equal(got[i], want) {
			t.Fatalf("past the budget, block %d diverged from plain Exp", i)
		}
	}
	if now, _ := cacheStats(g); now != tables {
		t.Fatalf("a full cache grew from %d to %d tables", tables, now)
	}
	c := cacheFor(g)
	c.mu.Lock()
	kept := c.tables[string(first[0])] != nil
	c.mu.Unlock()
	if !kept {
		t.Fatal("a base admitted before the budget ran out lost its table")
	}
}

// TestRelayLeavesCacheEmpty relays 5,000 fresh ciphertexts through
// every non-first-hop entry point; none may build a table.
func TestRelayLeavesCacheEmpty(t *testing.T) {
	resetFixedBaseCaches()
	defer resetFixedBaseCaches()
	g := mathx.Oakley768
	keys := shortKeys(t, g, 2)
	relay, peer := keys[0], keys[1]
	const n = 5000
	fresh, err := peer.EncryptBlocks(prefixedBlocks(peer, "relayed", n))
	if err != nil {
		t.Fatal(err)
	}
	enc, err := relay.EncryptBlocks(fresh[:n-2])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := relay.Encrypt(fresh[n-2]); err != nil {
		t.Fatal(err)
	}
	m := new(big.Int).SetBytes(fresh[n-1])
	if _, err := relay.EncryptInt(m); err != nil {
		t.Fatal(err)
	}
	if _, err := relay.DecryptBlocks(enc[:64]); err != nil {
		t.Fatal(err)
	}
	if tables, size := cacheStats(g); tables != 0 || size != 0 {
		t.Fatalf("relaying %d ciphertexts left %d tables (%d bytes) in the cache", n, tables, size)
	}
}

// TestFirstHopConcurrentSameBase has many goroutines encrypt the same
// fresh encodings at once, so several build the same table at the same
// time; under -race it pins the build/store handoff. Every result must
// match plain Exp and each base must end with exactly one table.
func TestFirstHopConcurrentSameBase(t *testing.T) {
	resetFixedBaseCaches()
	defer resetFixedBaseCaches()
	g := mathx.Oakley768
	keys := shortKeys(t, g, 8)
	blocks := testBlocks(keys[0], 6)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for _, k := range keys {
		want := make([][]byte, len(blocks))
		for i, b := range blocks {
			want[i] = plainEncrypt(t, k, b)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			got, err := k.EncryptFirstHop(blocks)
			if err != nil {
				t.Error(err)
				return
			}
			for i := range blocks {
				if !bytes.Equal(got[i], want[i]) {
					t.Errorf("concurrent first hop: block %d diverged from plain Exp", i)
					return
				}
			}
		}()
	}
	close(start)
	wg.Wait()
	tables, size := cacheStats(g)
	perTable := mathx.NewFixedBase(big.NewInt(2), g.P, g.ShortExpBits()).Size()
	if tables != len(blocks) || size != tables*perTable {
		t.Fatalf("%d tables holding %d bytes, want %d tables of %d bytes", tables, size, len(blocks), perTable)
	}
}
