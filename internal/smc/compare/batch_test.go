package compare

import (
	"context"
	"errors"
	"math/big"
	"slices"
	"sync"
	"testing"
	"time"

	"confaudit/internal/smc"
	"confaudit/internal/transport"
)

// batchCfg is the run runBatch and the refusal tests use.
var batchCfg = BatchConfig{
	Holders: [2]string{"A", "B"},
	TTP:     "TTP",
	MaxAbs:  big.NewInt(1 << 40),
	Session: "batch",
}

func runBatch(t *testing.T, session string, keys []string, va, vb []*big.Int) []int {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	net := transport.NewMemNetwork()
	defer net.Close() //nolint:errcheck
	mbs := mailboxes(t, net, "A", "B", "TTP")
	cfg := batchCfg
	cfg.Session = session
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		results = map[string][]int{}
		errs    = map[string]error{}
	)
	wg.Add(3)
	go func() {
		defer wg.Done()
		if err := ServeBatchCompare(ctx, mbs["TTP"], cfg); err != nil {
			mu.Lock()
			errs["TTP"] = err
			mu.Unlock()
		}
	}()
	for id, vals := range map[string][]*big.Int{"A": va, "B": vb} {
		go func(id string, vals []*big.Int) {
			defer wg.Done()
			res, err := BatchCompare(ctx, mbs[id], cfg, keys, vals)
			mu.Lock()
			defer mu.Unlock()
			results[id] = res
			errs[id] = err
		}(id, vals)
	}
	wg.Wait()
	for id, err := range errs {
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
	}
	// Only Holders[0] learns the signs: B returns none, and no verdict
	// is waiting for it.
	if results["B"] != nil {
		t.Fatalf("Holders[1] got signs %v, want none", results["B"])
	}
	wait, cancelWait := context.WithTimeout(ctx, 20*time.Millisecond)
	defer cancelWait()
	if msg, err := mbs["B"].Expect(wait, msgVerdictBatch, session); err == nil {
		t.Fatalf("Holders[1] received a verdict from %s", msg.From)
	}
	return results["A"]
}

func TestBatchCompareSigns(t *testing.T) {
	keys := []string{"g1", "g2", "g3", "g4"}
	va := []*big.Int{big.NewInt(10), big.NewInt(20), big.NewInt(30), big.NewInt(-5)}
	vb := []*big.Int{big.NewInt(20), big.NewInt(20), big.NewInt(7), big.NewInt(-4)}
	got := runBatch(t, "batch-1", keys, va, vb)
	if want := []int{-1, 0, 1, -1}; !slices.Equal(got, want) {
		t.Fatalf("signs %v, want %v", got, want)
	}
}

// TestBatchCompareExtremes compares values at both ends of
// [-MaxAbs, MaxAbs], where the offset values come nearest to their
// width's limits.
func TestBatchCompareExtremes(t *testing.T) {
	lim := batchCfg.MaxAbs
	neg := new(big.Int).Neg(lim)
	keys := []string{"k1", "k2", "k3", "k4"}
	va := []*big.Int{neg, lim, lim, big.NewInt(0)}
	vb := []*big.Int{lim, neg, lim, neg}
	if got, want := runBatch(t, "batch-extremes", keys, va, vb), []int{-1, 1, 0, 1}; !slices.Equal(got, want) {
		t.Fatalf("signs %v, want %v", got, want)
	}
}

func TestBatchCompareEmpty(t *testing.T) {
	got := runBatch(t, "batch-empty", nil, nil, nil)
	if len(got) != 0 {
		t.Fatalf("expected empty result, got %v", got)
	}
}

func TestBatchCompareLarge(t *testing.T) {
	const n = 100
	keys := make([]string, n)
	va := make([]*big.Int, n)
	vb := make([]*big.Int, n)
	want := make([]int, n)
	for i := 0; i < n; i++ {
		keys[i] = "k" + string(rune('0'+i%10)) + string(rune('a'+i/10))
		va[i] = big.NewInt(int64(i * 3 % 50))
		vb[i] = big.NewInt(int64(i * 7 % 50))
		want[i] = va[i].Cmp(vb[i])
	}
	if got := runBatch(t, "batch-large", keys, va, vb); !slices.Equal(got, want) {
		t.Fatalf("signs %v, want %v", got, want)
	}
}

// TestBatchWidthHoldsExtremes checks batchWidth's bound at the largest
// transform two holders can derive, a = b = 2·(bound-1), and the
// smallest, a = b = 2: a·x + b + off stays positive and within the
// width for x = ±MaxAbs.
func TestBatchWidthHoldsExtremes(t *testing.T) {
	for _, maxAbs := range []*big.Int{big.NewInt(1), big.NewInt(1000), new(big.Int).Lsh(big.NewInt(1), 83)} {
		off, width := batchWidth(maxAbs)
		bound := new(big.Int).Lsh(maxAbs, 64)
		top := new(big.Int).Sub(bound, big.NewInt(1))
		top.Lsh(top, 1)
		for _, ab := range []*big.Int{big.NewInt(2), top} {
			for _, x := range []*big.Int{maxAbs, new(big.Int).Neg(maxAbs)} {
				u := new(big.Int).Mul(ab, x)
				u.Add(u, ab).Add(u, off)
				if u.Sign() <= 0 || u.BitLen() > 8*width {
					t.Fatalf("MaxAbs %v, a = b = %v, x = %v: offset value of %d bits outside (0, 2^%d)", maxAbs, ab, x, u.BitLen(), 8*width)
				}
			}
		}
	}
}

// TestServeBatchCompareRefuses feeds the TTP hand-made submissions:
// each is refused as a protocol violation, and no verdict is sent.
func TestServeBatchCompareRefuses(t *testing.T) {
	_, width := batchWidth(batchCfg.MaxAbs)
	sub := func(n int, digest byte) *batchSubmitBody {
		b := &batchSubmitBody{N: n, Run: make([]byte, n*width)}
		b.Digest[0] = digest
		return b
	}
	short := sub(2, 1)
	short.Run = short.Run[1:]
	type submission struct {
		from string
		body *batchSubmitBody
	}
	cases := []struct {
		name string
		subs []submission
	}{
		{"non-holder", []submission{{"A", sub(1, 1)}, {"M", sub(1, 1)}}},
		{"second submission", []submission{{"A", sub(1, 1)}, {"A", sub(1, 1)}}},
		{"run not n values wide", []submission{{"A", sub(2, 1)}, {"B", short}}},
		{"unequal counts", []submission{{"A", sub(2, 1)}, {"B", sub(3, 1)}}},
		{"misaligned keys", []submission{{"A", sub(2, 1)}, {"B", sub(2, 2)}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			net := transport.NewMemNetwork()
			defer net.Close() //nolint:errcheck
			mbs := mailboxes(t, net, "A", "B", "TTP", "M")
			for _, s := range tc.subs {
				if err := mbs[s.from].SendBody(ctx, "TTP", msgSubmitBatch, batchCfg.Session, s.body); err != nil {
					t.Fatal(err)
				}
			}
			if err := ServeBatchCompare(ctx, mbs["TTP"], batchCfg); !errors.Is(err, smc.ErrProtocol) {
				t.Fatalf("err = %v, want %v", err, smc.ErrProtocol)
			}
			wait, cancelWait := context.WithTimeout(ctx, 20*time.Millisecond)
			defer cancelWait()
			for _, h := range batchCfg.Holders {
				if _, err := mbs[h].Expect(wait, msgVerdictBatch, batchCfg.Session); err == nil {
					t.Fatalf("a refused run sent %s a verdict", h)
				}
			}
		})
	}
}

// TestBatchCompareRefusesBadVerdict stands in for a TTP whose verdict
// holds the wrong number of signs or a sign byte outside {0, 1, 2}:
// Holders[0] refuses it rather than read signs from it.
func TestBatchCompareRefusesBadVerdict(t *testing.T) {
	for name, signs := range map[string][]byte{
		"short":     {0, 1},
		"long":      {0, 1, 2, 1},
		"sign byte": {0, 3, 1},
	} {
		t.Run(name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			net := transport.NewMemNetwork()
			defer net.Close() //nolint:errcheck
			mbs := mailboxes(t, net, "A", "B", "TTP")
			// B's seed lets A derive the transform; the TTP answers A at once.
			seed := &seedBody{A: big.NewInt(1), B: big.NewInt(1)}
			if err := mbs["B"].SendBody(ctx, "A", msgSeed, batchCfg.Session, seed); err != nil {
				t.Fatal(err)
			}
			if err := mbs["TTP"].SendBody(ctx, "A", msgVerdictBatch, batchCfg.Session, rawBody(signs)); err != nil {
				t.Fatal(err)
			}
			vals := []*big.Int{big.NewInt(1), big.NewInt(2), big.NewInt(3)}
			_, err := BatchCompare(ctx, mbs["A"], batchCfg, []string{"k1", "k2", "k3"}, vals)
			if !errors.Is(err, smc.ErrProtocol) {
				t.Fatalf("err = %v, want %v", err, smc.ErrProtocol)
			}
		})
	}
}

// TestBatchCompareRefusesBadSeed stands in for a peer whose seed
// contribution lies outside [1, bound): a zero or negative a would
// make the transform non-monotone, and one past the bound would
// overflow the run's width. The holder refuses it and submits nothing.
func TestBatchCompareRefusesBadSeed(t *testing.T) {
	bound := new(big.Int).Lsh(batchCfg.MaxAbs, 64)
	for name, seed := range map[string]*seedBody{
		"zero a":     {A: big.NewInt(0), B: big.NewInt(1)},
		"negative b": {A: big.NewInt(1), B: big.NewInt(-1)},
		"a at bound": {A: bound, B: big.NewInt(1)},
		"no b":       {A: big.NewInt(1)},
	} {
		t.Run(name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			net := transport.NewMemNetwork()
			defer net.Close() //nolint:errcheck
			mbs := mailboxes(t, net, "A", "B", "TTP")
			if err := mbs["B"].SendBody(ctx, "A", msgSeed, batchCfg.Session, seed); err != nil {
				t.Fatal(err)
			}
			_, err := BatchCompare(ctx, mbs["A"], batchCfg, []string{"k"}, []*big.Int{big.NewInt(1)})
			if !errors.Is(err, smc.ErrProtocol) {
				t.Fatalf("err = %v, want %v", err, smc.ErrProtocol)
			}
			wait, cancelWait := context.WithTimeout(ctx, 20*time.Millisecond)
			defer cancelWait()
			if _, err := mbs["TTP"].Expect(wait, msgSubmitBatch, batchCfg.Session); err == nil {
				t.Fatal("a holder submitted after a bad seed")
			}
		})
	}
}

func TestBatchCompareValidation(t *testing.T) {
	ctx := context.Background()
	net := transport.NewMemNetwork()
	defer net.Close() //nolint:errcheck
	mbs := mailboxes(t, net, "A")
	good := BatchConfig{Holders: [2]string{"A", "B"}, TTP: "T", MaxAbs: big.NewInt(100), Session: "s"}

	if _, err := BatchCompare(ctx, mbs["A"], good, []string{"k"}, nil); err == nil {
		t.Fatal("mismatched keys/values accepted")
	}
	if _, err := BatchCompare(ctx, mbs["A"], good, []string{"k"}, []*big.Int{big.NewInt(101)}); err == nil {
		t.Fatal("out-of-bound value accepted")
	}
	if _, err := BatchCompare(ctx, mbs["A"], good, []string{"k"}, []*big.Int{nil}); err == nil {
		t.Fatal("nil value accepted")
	}
	bad := good
	bad.TTP = "A"
	if _, err := BatchCompare(ctx, mbs["A"], bad, nil, nil); err == nil {
		t.Fatal("TTP==holder accepted")
	}
	bad = good
	bad.MaxAbs = nil
	if err := ServeBatchCompare(ctx, mbs["A"], bad); err == nil {
		t.Fatal("nil bound accepted by TTP")
	}
}
