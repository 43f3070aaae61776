package sum

import (
	"context"
	"fmt"
	"math/big"
	"testing"
	"testing/quick"
	"time"

	"confaudit/internal/smc/smctest"
	"confaudit/internal/transport"
)

var testPrime = big.NewInt(2305843009213693951) // 2^61 - 1, Mersenne prime

func runParties(t *testing.T, cfg Config, values map[string]*big.Int) map[string]*big.Int {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	results, err := smctest.RunParties(ctx, cfg.Parties, func(ctx context.Context, id string, mb *transport.Mailbox) (*big.Int, error) {
		return Run(ctx, mb, cfg, values[id])
	})
	if err != nil {
		t.Fatal(err)
	}
	return results
}

// TestSecureSumPaperExample sums the C1 column of the paper's Table 1
// (20+34+45+18+53 = 170) across five parties.
func TestSecureSumPaperExample(t *testing.T) {
	parties := []string{"P0", "P1", "P2", "P3", "P4"}
	values := map[string]*big.Int{
		"P0": big.NewInt(20), "P1": big.NewInt(34), "P2": big.NewInt(45),
		"P3": big.NewInt(18), "P4": big.NewInt(53),
	}
	cfg := Config{
		P:         testPrime,
		Parties:   parties,
		K:         3,
		Receivers: []string{"P0", "P2"},
		Session:   "table1-c1",
	}
	results := runParties(t, cfg, values)
	for _, r := range []string{"P0", "P2"} {
		if results[r] == nil || results[r].Int64() != 170 {
			t.Fatalf("%s sum = %v, want 170", r, results[r])
		}
	}
	for _, other := range []string{"P1", "P3", "P4"} {
		if results[other] != nil {
			t.Fatalf("non-receiver %s obtained the sum", other)
		}
	}
}

func TestSecureSumThresholdEqualsParties(t *testing.T) {
	parties := []string{"A", "B", "C"}
	values := map[string]*big.Int{
		"A": big.NewInt(1), "B": big.NewInt(2), "C": big.NewInt(3),
	}
	cfg := Config{
		P:         testPrime,
		Parties:   parties,
		K:         3,
		Receivers: []string{"C"},
		Session:   "k=n",
	}
	results := runParties(t, cfg, values)
	if results["C"].Int64() != 6 {
		t.Fatalf("sum = %v, want 6", results["C"])
	}
}

func TestSecureSumTwoParties(t *testing.T) {
	parties := []string{"A", "B"}
	values := map[string]*big.Int{"A": big.NewInt(1000), "B": big.NewInt(337)}
	cfg := Config{
		P:         testPrime,
		Parties:   parties,
		K:         2,
		Receivers: []string{"A", "B"},
		Session:   "pair",
	}
	results := runParties(t, cfg, values)
	for _, n := range parties {
		if results[n].Int64() != 1337 {
			t.Fatalf("%s sum = %v, want 1337", n, results[n])
		}
	}
}

// TestWeightedSum checks the paper's Σ α_i a_i variant.
func TestWeightedSum(t *testing.T) {
	parties := []string{"A", "B", "C"}
	values := map[string]*big.Int{
		"A": big.NewInt(7), "B": big.NewInt(11), "C": big.NewInt(13),
	}
	weights := []*big.Int{big.NewInt(2), big.NewInt(3), big.NewInt(5)}
	want := int64(2*7 + 3*11 + 5*13) // 112
	cfg := Config{
		P:         testPrime,
		Parties:   parties,
		K:         2,
		Receivers: []string{"B"},
		Weights:   weights,
		Session:   "weighted",
	}
	results := runParties(t, cfg, values)
	if results["B"].Int64() != want {
		t.Fatalf("weighted sum = %v, want %d", results["B"], want)
	}
}

func TestSumZeroValues(t *testing.T) {
	parties := []string{"A", "B", "C"}
	values := map[string]*big.Int{
		"A": big.NewInt(0), "B": big.NewInt(0), "C": big.NewInt(0),
	}
	cfg := Config{
		P:         testPrime,
		Parties:   parties,
		K:         2,
		Receivers: []string{"A"},
		Session:   "zeros",
	}
	results := runParties(t, cfg, values)
	if results["A"].Sign() != 0 {
		t.Fatalf("sum = %v, want 0", results["A"])
	}
}

func TestSumQuickRandomValues(t *testing.T) {
	parties := []string{"A", "B", "C", "D"}
	f := func(a, b, c, d uint32) bool {
		values := map[string]*big.Int{
			"A": big.NewInt(int64(a)), "B": big.NewInt(int64(b)),
			"C": big.NewInt(int64(c)), "D": big.NewInt(int64(d)),
		}
		want := new(big.Int).SetUint64(uint64(a) + uint64(b) + uint64(c) + uint64(d))
		cfg := Config{
			P:         testPrime,
			Parties:   parties,
			K:         2,
			Receivers: []string{"D"},
			Session:   fmt.Sprintf("q-%d-%d", a, b),
		}
		results := runParties(t, cfg, values)
		return results["D"].Cmp(want) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestSumConfigValidation(t *testing.T) {
	ctx := context.Background()
	net := transport.NewMemNetwork()
	defer net.Close() //nolint:errcheck
	ep, err := net.Endpoint("A")
	if err != nil {
		t.Fatal(err)
	}
	mb := transport.NewMailbox(ep)
	defer mb.Close() //nolint:errcheck

	cases := []Config{
		{Parties: []string{"A", "B"}, K: 2, Receivers: []string{"A"}, Session: "s"},                                                   // nil P
		{P: testPrime, Parties: []string{"A"}, K: 1, Receivers: []string{"A"}, Session: "s"},                                          // short
		{P: testPrime, Parties: []string{"A", "B"}, K: 0, Receivers: []string{"A"}, Session: "s"},                                     // k<1
		{P: testPrime, Parties: []string{"A", "B"}, K: 3, Receivers: []string{"A"}, Session: "s"},                                     // k>n
		{P: testPrime, Parties: []string{"A", "B"}, K: 2, Session: "s"},                                                               // no receivers
		{P: testPrime, Parties: []string{"A", "B"}, K: 2, Receivers: []string{"Z"}, Session: "s"},                                     // alien receiver
		{P: testPrime, Parties: []string{"A", "B"}, K: 2, Receivers: []string{"A"}},                                                   // no session
		{P: testPrime, Parties: []string{"A", "B"}, K: 2, Receivers: []string{"A"}, Weights: []*big.Int{big.NewInt(1)}, Session: "s"}, // weight count
	}
	for i, cfg := range cases {
		if _, err := Run(ctx, mb, cfg, big.NewInt(1)); err == nil {
			t.Fatalf("case %d: invalid config accepted", i)
		}
	}
	good := Config{P: testPrime, Parties: []string{"A", "B"}, K: 2, Receivers: []string{"A"}, Session: "s"}
	if _, err := Run(ctx, mb, good, nil); err == nil {
		t.Fatal("nil value accepted")
	}
}

func BenchmarkSum5Party(b *testing.B) {
	ctx := context.Background()
	parties := []string{"P0", "P1", "P2", "P3", "P4"}
	values := map[string]*big.Int{}
	for i, p := range parties {
		values[p] = big.NewInt(int64(i * 100))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := Config{
			P:         testPrime,
			Parties:   parties,
			K:         3,
			Receivers: []string{"P0"},
			Session:   fmt.Sprintf("b%d", i),
		}
		if _, err := smctest.RunParties(ctx, parties, func(ctx context.Context, id string, mb *transport.Mailbox) (struct{}, error) {
			_, err := Run(ctx, mb, cfg, values[id])
			return struct{}{}, err
		}); err != nil {
			b.Fatal(err)
		}
	}
}
