package compare

import (
	"bytes"
	"context"
	"errors"
	"slices"
	"sync"
	"testing"
	"time"

	"confaudit/internal/smc"
	"confaudit/internal/transport"
)

var eqCfg = BatchEqualConfig{Holders: [2]string{"A", "B"}, TTP: "TTP", Session: "eq"}

// runBatchEqual runs both holders and the TTP over mbs and returns each
// holder's verdicts.
func runBatchEqual(t *testing.T, mbs map[string]*transport.Mailbox, keys []string, va, vb [][]byte) (a, b []bool) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var (
		wg   sync.WaitGroup
		errs [3]error
	)
	wg.Add(3)
	go func() {
		defer wg.Done()
		errs[0] = ServeBatchEqual(ctx, mbs["TTP"], eqCfg)
	}()
	go func() {
		defer wg.Done()
		a, errs[1] = BatchEqual(ctx, mbs["A"], eqCfg, keys, va)
	}()
	go func() {
		defer wg.Done()
		b, errs[2] = BatchEqual(ctx, mbs["B"], eqCfg, keys, vb)
	}()
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("party %d: %v", i, err)
		}
	}
	return a, b
}

func byteVals(vs ...string) [][]byte {
	out := make([][]byte, len(vs))
	for i, v := range vs {
		out[i] = []byte(v)
	}
	return out
}

func TestBatchEqualVerdicts(t *testing.T) {
	net := transport.NewMemNetwork()
	defer net.Close() //nolint:errcheck
	mbs := mailboxes(t, net, "A", "B", "TTP")
	keys := []string{"g1", "g2", "g3", "g4"}
	a, b := runBatchEqual(t, mbs, keys,
		byteVals("x", "y", "z", ""),
		byteVals("x", "q", "z", ""))
	if want := []bool{true, false, true, true}; !slices.Equal(a, want) {
		t.Fatalf("verdicts = %v, want %v", a, want)
	}
	if b != nil {
		t.Fatalf("Holders[1] got verdicts %v, want none", b)
	}
	// The TTP sent Holders[1] nothing: no verdict is waiting for it.
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if msg, err := mbs["B"].Expect(ctx, msgVerdictBatchEq, eqCfg.Session); err == nil {
		t.Fatalf("Holders[1] received a verdict from %s", msg.From)
	}
}

func TestBatchEqualEmpty(t *testing.T) {
	net := transport.NewMemNetwork()
	defer net.Close() //nolint:errcheck
	mbs := mailboxes(t, net, "A", "B", "TTP")
	a, _ := runBatchEqual(t, mbs, nil, nil, nil)
	if len(a) != 0 {
		t.Fatalf("verdicts = %v, want none", a)
	}
}

// TestBatchEqualTagsBindKey stands in for the TTP and reads what the
// holders submit: one value under two keys gets two different tags, so
// the TTP cannot see equality across keys, while both holders' tags for
// one key and value agree.
func TestBatchEqualTagsBindKey(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	net := transport.NewMemNetwork()
	defer net.Close() //nolint:errcheck
	mbs := mailboxes(t, net, "A", "B", "TTP")
	keys := []string{"g1", "g2"}
	vals := byteVals("same", "same")
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i, h := range eqCfg.Holders {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = BatchEqual(ctx, mbs[h], eqCfg, keys, vals)
		}()
	}
	subs := map[string]batchEqSubmitBody{}
	for range 2 {
		msg, err := mbs["TTP"].Expect(ctx, msgSubmitBatchEq, eqCfg.Session)
		if err != nil {
			t.Fatal(err)
		}
		var body batchEqSubmitBody
		if err := transport.Unmarshal(msg.Payload, &body); err != nil {
			t.Fatal(err)
		}
		subs[msg.From] = body
	}
	if err := mbs["TTP"].SendBody(ctx, "A", msgVerdictBatchEq, eqCfg.Session, batchEqVerdictBody{Equal: []bool{true, true}}); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	a, b := subs["A"], subs["B"]
	if bytes.Equal(a.Tags[0], a.Tags[1]) {
		t.Fatal("one value under two keys got the same tag")
	}
	for i := range keys {
		if !bytes.Equal(a.Tags[i], b.Tags[i]) {
			t.Fatalf("holders' tags for key %s differ", keys[i])
		}
	}
}

// TestServeBatchEqualRefuses feeds the TTP hand-made submissions: each
// malformed pair is refused as a protocol violation, and no verdict is
// sent.
func TestServeBatchEqualRefuses(t *testing.T) {
	tag := bytes.Repeat([]byte{7}, TagSize)
	sub := func(keys ...string) batchEqSubmitBody {
		tags := make([][]byte, len(keys))
		for i := range tags {
			tags[i] = tag
		}
		return batchEqSubmitBody{Keys: keys, Tags: tags}
	}
	short := sub("g1", "g2")
	short.Tags[1] = tag[:TagSize-1]
	type submission struct {
		from string
		body batchEqSubmitBody
	}
	cases := []struct {
		name string
		subs []submission
	}{
		{"non-holder", []submission{{"A", sub("g1")}, {"M", sub("g1")}}},
		{"key order", []submission{{"A", sub("g1", "g2")}, {"B", sub("g2", "g1")}}},
		{"key count", []submission{{"A", sub("g1", "g2")}, {"B", sub("g1")}}},
		{"tag count", []submission{{"A", batchEqSubmitBody{Keys: []string{"g1", "g2"}, Tags: [][]byte{tag}}}}},
		{"tag width", []submission{{"A", sub("g1")}, {"B", short}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			net := transport.NewMemNetwork()
			defer net.Close() //nolint:errcheck
			mbs := mailboxes(t, net, "A", "B", "TTP", "M")
			for _, s := range tc.subs {
				if err := mbs[s.from].SendBody(ctx, "TTP", msgSubmitBatchEq, eqCfg.Session, s.body); err != nil {
					t.Fatal(err)
				}
			}
			err := ServeBatchEqual(ctx, mbs["TTP"], eqCfg)
			if !errors.Is(err, smc.ErrProtocol) {
				t.Fatalf("err = %v, want %v", err, smc.ErrProtocol)
			}
			wait, cancelWait := context.WithTimeout(ctx, 20*time.Millisecond)
			defer cancelWait()
			if _, err := mbs["A"].Expect(wait, msgVerdictBatchEq, eqCfg.Session); err == nil {
				t.Fatal("a refused run sent a verdict")
			}
		})
	}
}

func TestBatchEqualValidation(t *testing.T) {
	ctx := context.Background()
	net := transport.NewMemNetwork()
	defer net.Close() //nolint:errcheck
	mbs := mailboxes(t, net, "A", "M")
	if _, err := BatchEqual(ctx, mbs["A"], eqCfg, []string{"k"}, nil); !errors.Is(err, smc.ErrProtocol) {
		t.Fatalf("mismatched keys/values: err = %v", err)
	}
	if _, err := BatchEqual(ctx, mbs["M"], eqCfg, nil, nil); !errors.Is(err, smc.ErrProtocol) {
		t.Fatalf("non-holder: err = %v", err)
	}
	for name, bad := range map[string]BatchEqualConfig{
		"TTP is a holder":  {Holders: eqCfg.Holders, TTP: "A", Session: "s"},
		"one holder twice": {Holders: [2]string{"A", "A"}, TTP: "TTP", Session: "s"},
		"empty session":    {Holders: eqCfg.Holders, TTP: "TTP"},
	} {
		if _, err := BatchEqual(ctx, mbs["A"], bad, nil, nil); !errors.Is(err, smc.ErrProtocol) {
			t.Fatalf("%s: holder err = %v", name, err)
		}
		if err := ServeBatchEqual(ctx, mbs["A"], bad); !errors.Is(err, smc.ErrProtocol) {
			t.Fatalf("%s: TTP err = %v", name, err)
		}
	}
}
