package compare

import (
	"context"
	"math/big"
	"sync"
	"testing"
	"time"

	"confaudit/internal/transport"
)

func runBatch(t *testing.T, session string, keys []string, va, vb []*big.Int) map[string]int {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	net := transport.NewMemNetwork()
	defer net.Close() //nolint:errcheck
	mbs := mailboxes(t, net, "A", "B", "TTP")
	cfg := BatchConfig{
		Holders: [2]string{"A", "B"},
		TTP:     "TTP",
		MaxAbs:  big.NewInt(1 << 40),
		Session: session,
	}
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		results = map[string]map[string]int{}
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
	want := map[string]int{"g1": -1, "g2": 0, "g3": 1, "g4": -1}
	for k, w := range want {
		if got[k] != w {
			t.Fatalf("sign(%s) = %d, want %d", k, got[k], w)
		}
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
	want := make(map[string]int, n)
	for i := 0; i < n; i++ {
		keys[i] = "k" + string(rune('0'+i%10)) + string(rune('a'+i/10))
		va[i] = big.NewInt(int64(i * 3 % 50))
		vb[i] = big.NewInt(int64(i * 7 % 50))
		want[keys[i]] = va[i].Cmp(vb[i])
	}
	got := runBatch(t, "batch-large", keys, va, vb)
	for k, w := range want {
		if got[k] != w {
			t.Fatalf("sign(%s) = %d, want %d", k, got[k], w)
		}
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
