package compare

import (
	"context"
	"fmt"
	"math/big"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"confaudit/internal/mathx"
	"confaudit/internal/smc/intersect"
	"confaudit/internal/transport"
)

var testPrime = big.NewInt(2305843009213693951) // 2^61 - 1

func mailboxes(t testing.TB, net *transport.MemNetwork, ids ...string) map[string]*transport.Mailbox {
	t.Helper()
	mbs := make(map[string]*transport.Mailbox, len(ids))
	for _, id := range ids {
		ep, err := net.Endpoint(id)
		if err != nil {
			t.Fatal(err)
		}
		mb := transport.NewMailbox(ep)
		t.Cleanup(func() { mb.Close() }) //nolint:errcheck
		mbs[id] = mb
	}
	return mbs
}

func runEquality(t *testing.T, session string, va, vb *big.Int) bool {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	net := transport.NewMemNetwork()
	defer net.Close() //nolint:errcheck
	mbs := mailboxes(t, net, "A", "B", "TTP")

	cfg := EqualityConfig{
		P:       testPrime,
		Holders: [2]string{"A", "B"},
		TTP:     "TTP",
		Session: session,
	}
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		results = map[string]bool{}
		errs    = map[string]error{}
	)
	wg.Add(3)
	go func() {
		defer wg.Done()
		if err := ServeEqual(ctx, mbs["TTP"], cfg); err != nil {
			mu.Lock()
			errs["TTP"] = err
			mu.Unlock()
		}
	}()
	for id, v := range map[string]*big.Int{"A": va, "B": vb} {
		go func(id string, v *big.Int) {
			defer wg.Done()
			eq, err := Equal(ctx, mbs[id], cfg, v)
			mu.Lock()
			defer mu.Unlock()
			results[id] = eq
			errs[id] = err
		}(id, v)
	}
	wg.Wait()
	for id, err := range errs {
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
	}
	if results["A"] != results["B"] {
		t.Fatal("holders received different verdicts")
	}
	return results["A"]
}

func TestEqualityPositive(t *testing.T) {
	if !runEquality(t, "eq-pos", big.NewInt(23456), big.NewInt(23456)) {
		t.Fatal("equal values reported unequal")
	}
}

func TestEqualityNegative(t *testing.T) {
	if runEquality(t, "eq-neg", big.NewInt(23456), big.NewInt(23457)) {
		t.Fatal("unequal values reported equal")
	}
}

func TestEqualityZeroValues(t *testing.T) {
	if !runEquality(t, "eq-zero", big.NewInt(0), big.NewInt(0)) {
		t.Fatal("zero values reported unequal")
	}
}

func TestEqualityQuick(t *testing.T) {
	i := 0
	f := func(a, b uint32) bool {
		i++
		got := runEquality(t, fmt.Sprintf("eq-q-%d", i), big.NewInt(int64(a)), big.NewInt(int64(b)))
		return got == (a == b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}

func TestEqualityConfigValidation(t *testing.T) {
	ctx := context.Background()
	net := transport.NewMemNetwork()
	defer net.Close() //nolint:errcheck
	mbs := mailboxes(t, net, "A")
	cases := []EqualityConfig{
		{Holders: [2]string{"A", "B"}, TTP: "T", Session: "s"},               // nil P
		{P: testPrime, Holders: [2]string{"A", "A"}, TTP: "T", Session: "s"}, // same holders
		{P: testPrime, Holders: [2]string{"A", ""}, TTP: "T", Session: "s"},  // empty holder
		{P: testPrime, Holders: [2]string{"A", "B"}, TTP: "A", Session: "s"}, // TTP is holder
		{P: testPrime, Holders: [2]string{"A", "B"}, TTP: "", Session: "s"},  // no TTP
		{P: testPrime, Holders: [2]string{"A", "B"}, TTP: "T"},               // no session
		{P: testPrime, Holders: [2]string{"X", "Y"}, TTP: "T", Session: "s"}, // self not holder
	}
	for i, cfg := range cases {
		if _, err := Equal(ctx, mbs["A"], cfg, big.NewInt(1)); err == nil {
			t.Fatalf("case %d: invalid config accepted", i)
		}
	}
	good := EqualityConfig{P: testPrime, Holders: [2]string{"A", "B"}, TTP: "T", Session: "s"}
	if _, err := Equal(ctx, mbs["A"], good, nil); err == nil {
		t.Fatal("nil value accepted")
	}
}

func runRank(t *testing.T, session string, values map[string]*big.Int, maxValue *big.Int) map[string]*RankResult {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	holders := make([]string, 0, len(values))
	for h := range values {
		holders = append(holders, h)
	}
	// Deterministic holder order for the config.
	for i := 0; i < len(holders); i++ {
		for j := i + 1; j < len(holders); j++ {
			if holders[j] < holders[i] {
				holders[i], holders[j] = holders[j], holders[i]
			}
		}
	}
	net := transport.NewMemNetwork()
	defer net.Close() //nolint:errcheck
	mbs := mailboxes(t, net, append(append([]string{}, holders...), "TTP")...)
	cfg := RankConfig{
		Holders:  holders,
		TTP:      "TTP",
		MaxValue: maxValue,
		Session:  session,
	}
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		results = map[string]*RankResult{}
		errs    = map[string]error{}
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := ServeRank(ctx, mbs["TTP"], cfg); err != nil {
			mu.Lock()
			errs["TTP"] = err
			mu.Unlock()
		}
	}()
	for h, v := range values {
		wg.Add(1)
		go func(h string, v *big.Int) {
			defer wg.Done()
			res, err := Rank(ctx, mbs[h], cfg, v)
			mu.Lock()
			defer mu.Unlock()
			results[h] = res
			errs[h] = err
		}(h, v)
	}
	wg.Wait()
	for id, err := range errs {
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
	}
	return results
}

func TestRankBasic(t *testing.T) {
	values := map[string]*big.Int{
		"A": big.NewInt(300),
		"B": big.NewInt(100),
		"C": big.NewInt(200),
	}
	results := runRank(t, "rank-basic", values, big.NewInt(1000))
	for h, res := range results {
		if res.MaxHolder != "A" {
			t.Fatalf("%s sees max holder %q, want A", h, res.MaxHolder)
		}
		if res.MinHolder != "B" {
			t.Fatalf("%s sees min holder %q, want B", h, res.MinHolder)
		}
		if res.Rank["A"] != 1 || res.Rank["C"] != 2 || res.Rank["B"] != 3 {
			t.Fatalf("%s ranks = %v", h, res.Rank)
		}
	}
}

func TestRankTies(t *testing.T) {
	values := map[string]*big.Int{
		"A": big.NewInt(50),
		"B": big.NewInt(50),
		"C": big.NewInt(10),
	}
	results := runRank(t, "rank-tie", values, big.NewInt(100))
	res := results["A"]
	if res.Rank["A"] != 1 || res.Rank["B"] != 1 {
		t.Fatalf("tied holders should share rank 1: %v", res.Rank)
	}
	if res.Rank["C"] != 3 {
		t.Fatalf("C rank = %d, want 3", res.Rank["C"])
	}
	if res.MaxHolder != "A" { // smallest ID among tied maxima
		t.Fatalf("MaxHolder = %q, want A", res.MaxHolder)
	}
	if res.MinHolder != "C" {
		t.Fatalf("MinHolder = %q, want C", res.MinHolder)
	}
}

func TestRankTwoHolders(t *testing.T) {
	values := map[string]*big.Int{
		"A": big.NewInt(0),
		"B": big.NewInt(1),
	}
	results := runRank(t, "rank-two", values, big.NewInt(1))
	if results["A"].MaxHolder != "B" || results["A"].MinHolder != "A" {
		t.Fatalf("verdict = %+v", results["A"])
	}
}

// TestRankOrderPreservedQuick property-tests that the monotone transform
// preserves the true order for random values.
func TestRankOrderPreservedQuick(t *testing.T) {
	i := 0
	f := func(a, b, c uint16) bool {
		i++
		values := map[string]*big.Int{
			"A": big.NewInt(int64(a)),
			"B": big.NewInt(int64(b)),
			"C": big.NewInt(int64(c)),
		}
		results := runRank(t, fmt.Sprintf("rank-q-%d", i), values, big.NewInt(1<<17))
		res := results["A"]
		// Verify ranks agree with plaintext descending order.
		vals := []struct {
			h string
			v uint16
		}{{"A", a}, {"B", b}, {"C", c}}
		for x := 0; x < len(vals); x++ {
			for y := 0; y < len(vals); y++ {
				if vals[x].v > vals[y].v && res.Rank[vals[x].h] >= res.Rank[vals[y].h] {
					return false
				}
				if vals[x].v == vals[y].v && res.Rank[vals[x].h] != res.Rank[vals[y].h] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 6}); err != nil {
		t.Fatal(err)
	}
}

func TestRankConfigValidation(t *testing.T) {
	ctx := context.Background()
	net := transport.NewMemNetwork()
	defer net.Close() //nolint:errcheck
	mbs := mailboxes(t, net, "A")
	cases := []RankConfig{
		{Holders: []string{"A"}, TTP: "T", MaxValue: big.NewInt(10), Session: "s"},      // one holder
		{Holders: []string{"A", "B"}, TTP: "A", MaxValue: big.NewInt(10), Session: "s"}, // TTP is holder
		{Holders: []string{"A", "B"}, TTP: "", MaxValue: big.NewInt(10), Session: "s"},  // no TTP
		{Holders: []string{"A", "B"}, TTP: "T", Session: "s"},                           // no bound
		{Holders: []string{"A", "B"}, TTP: "T", MaxValue: big.NewInt(10)},               // no session
		{Holders: []string{"X", "Y"}, TTP: "T", MaxValue: big.NewInt(10), Session: "s"}, // self not holder
	}
	for i, cfg := range cases {
		if _, err := Rank(ctx, mbs["A"], cfg, big.NewInt(1)); err == nil {
			t.Fatalf("case %d: invalid config accepted", i)
		}
	}
	good := RankConfig{Holders: []string{"A", "B"}, TTP: "T", MaxValue: big.NewInt(10), Session: "s"}
	if _, err := Rank(ctx, mbs["A"], good, big.NewInt(11)); err == nil {
		t.Fatal("out-of-bound value accepted")
	}
	if _, err := Rank(ctx, mbs["A"], good, nil); err == nil {
		t.Fatal("nil value accepted")
	}
}

// TestEqualBySetIntersection covers the §3.2 alternative equality
// route, which needs no TTP and no code of its own: "when the set size
// of S_i = 1, the secure set intersection could be used for secure
// equality comparison." Both holders run a two-party ∩s over their
// singleton sets; equality holds iff the intersection is non-empty.
func TestEqualBySetIntersection(t *testing.T) {
	equal := func(ctx context.Context, mb *transport.Mailbox, session string, v []byte) (bool, error) {
		holders := []string{"A", "B"}
		cfg := intersect.Config{Group: mathx.Oakley768, Ring: holders, Receivers: holders, Session: session}
		res, err := intersect.Run(ctx, mb, cfg, [][]byte{v})
		if err != nil {
			return false, err
		}
		return len(res.Plaintext) == 1, nil
	}
	run := func(session string, va, vb []byte) bool {
		t.Helper()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		net := transport.NewMemNetwork()
		defer net.Close() //nolint:errcheck
		mbs := mailboxes(t, net, "A", "B")
		var (
			wg         sync.WaitGroup
			eqA, eqB   bool
			errA, errB error
		)
		wg.Add(2)
		go func() {
			defer wg.Done()
			eqA, errA = equal(ctx, mbs["A"], session, va)
		}()
		go func() {
			defer wg.Done()
			eqB, errB = equal(ctx, mbs["B"], session, vb)
		}()
		wg.Wait()
		if errA != nil || errB != nil {
			t.Fatalf("errors: %v %v", errA, errB)
		}
		if eqA != eqB {
			t.Fatal("holders disagree")
		}
		return eqA
	}
	if !run("ebsi-1", []byte("salary-45002"), []byte("salary-45002")) {
		t.Fatal("equal values reported unequal")
	}
	if run("ebsi-2", []byte("salary-45002"), []byte("salary-45003")) {
		t.Fatal("unequal values reported equal")
	}
}

func BenchmarkEquality(b *testing.B) {
	ctx := context.Background()
	net := transport.NewMemNetwork()
	defer net.Close() //nolint:errcheck
	ids := []string{"A", "B", "TTP"}
	mbs := make(map[string]*transport.Mailbox, 3)
	for _, id := range ids {
		ep, err := net.Endpoint(id)
		if err != nil {
			b.Fatal(err)
		}
		mbs[id] = transport.NewMailbox(ep)
		defer mbs[id].Close() //nolint:errcheck
	}
	va, vb := big.NewInt(12345), big.NewInt(12345)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := EqualityConfig{
			P:       testPrime,
			Holders: [2]string{"A", "B"},
			TTP:     "TTP",
			Session: fmt.Sprintf("b%d", i),
		}
		var wg sync.WaitGroup
		wg.Add(3)
		go func() {
			defer wg.Done()
			if err := ServeEqual(ctx, mbs["TTP"], cfg); err != nil {
				b.Error(err)
			}
		}()
		go func() {
			defer wg.Done()
			if _, err := Equal(ctx, mbs["A"], cfg, va); err != nil {
				b.Error(err)
			}
		}()
		go func() {
			defer wg.Done()
			if _, err := Equal(ctx, mbs["B"], cfg, vb); err != nil {
				b.Error(err)
			}
		}()
		wg.Wait()
	}
}
