package compare

import (
	"bytes"
	"context"
	"errors"
	"maps"
	"slices"
	"sync"
	"testing"
	"time"

	"confaudit/internal/smc"
	"confaudit/internal/transport"
)

var isCfg = IntersectConfig{
	Members:   []string{"A", "B", "C"},
	Receivers: []string{"A", "B", "C"},
	TTP:       "TTP",
	Session:   "is",
}

func byteVals(vs ...string) [][]byte {
	out := make([][]byte, len(vs))
	for i, v := range vs {
		out[i] = []byte(v)
	}
	return out
}

// runIntersect runs every member of cfg and the TTP over mbs and
// returns each member's result indexes and the TTP's view.
func runIntersect(t *testing.T, mbs map[string]*transport.Mailbox, cfg IntersectConfig, sets map[string][][]byte) (map[string][]int, []int, int) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		results = map[string][]int{}
		sizes   []int
		common  int
		errs    = map[string]error{}
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		var err error
		sizes, common, err = ServeIntersect(ctx, mbs[cfg.TTP], cfg)
		mu.Lock()
		errs[cfg.TTP] = err
		mu.Unlock()
	}()
	for _, m := range cfg.Members {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := Intersect(ctx, mbs[m], cfg, sets[m])
			mu.Lock()
			results[m], errs[m] = res, err
			mu.Unlock()
		}()
	}
	wg.Wait()
	for p, err := range errs {
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
	}
	return results, sizes, common
}

// picked is the elements of set at idx.
func picked(set [][]byte, idx []int) []string {
	out := make([]string, len(idx))
	for n, i := range idx {
		out[n] = string(set[i])
	}
	return out
}

func TestIntersectVerdicts(t *testing.T) {
	for _, tc := range []struct {
		name string
		sets map[string][][]byte
		want []string
	}{
		{"overlap", map[string][][]byte{
			"A": byteVals("g1", "g2", "g3", "g4", "g5"),
			"B": byteVals("g5", "g3", "g9", "g1"),
			"C": byteVals("g3", "g1", "g2", "g7"),
		}, []string{"g1", "g3"}},
		{"disjoint", map[string][][]byte{
			"A": byteVals("g1"),
			"B": byteVals("g2"),
			"C": byteVals("g1", "g2"),
		}, nil},
		{"one empty set", map[string][][]byte{
			"A": byteVals("g1", "g2"),
			"B": nil,
			"C": byteVals("g1", "g2"),
		}, nil},
		{"all equal", map[string][][]byte{
			"A": byteVals("g1", "g2"),
			"B": byteVals("g2", "g1"),
			"C": byteVals("g1", "g2"),
		}, []string{"g1", "g2"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			net := transport.NewMemNetwork()
			defer net.Close() //nolint:errcheck
			mbs := mailboxes(t, net, "A", "B", "C", "TTP")
			res, sizes, common := runIntersect(t, mbs, isCfg, tc.sets)
			for _, m := range isCfg.Members {
				if !slices.IsSorted(res[m]) {
					t.Fatalf("%s: indexes %v not ascending", m, res[m])
				}
				got := picked(tc.sets[m], res[m])
				slices.Sort(got)
				if !slices.Equal(got, tc.want) {
					t.Fatalf("%s: intersection %q, want %q", m, got, tc.want)
				}
			}
			for i, m := range isCfg.Members {
				if sizes[i] != len(tc.sets[m]) {
					t.Fatalf("TTP saw %d tags from %s, want %d", sizes[i], m, len(tc.sets[m]))
				}
			}
			if common != len(tc.want) {
				t.Fatalf("TTP common count %d, want %d", common, len(tc.want))
			}
		})
	}
}

// TestIntersectViews taps the network: the TTP receives one tag per
// element from each member and never an element, and each member's
// verdict holds exactly as many positions as the intersection has
// elements, so it says nothing about other members' tags outside it.
func TestIntersectViews(t *testing.T) {
	net := transport.NewMemNetwork()
	defer net.Close() //nolint:errcheck
	var (
		mu       sync.Mutex
		submits  = map[string]intersectSubmitBody{}
		verdicts = map[string]intersectVerdictBody{}
	)
	net.SetDropFn(func(m transport.Message) bool {
		mu.Lock()
		defer mu.Unlock()
		switch m.Type {
		case msgSubmitIntersect:
			var b intersectSubmitBody
			if err := transport.Unmarshal(m.Payload, &b); err != nil {
				t.Error(err)
			}
			submits[m.From] = b
		case msgVerdictIntersect:
			var b intersectVerdictBody
			if err := transport.Unmarshal(m.Payload, &b); err != nil {
				t.Error(err)
			}
			verdicts[m.To] = b
		}
		return false
	})
	mbs := mailboxes(t, net, "A", "B", "C", "TTP")
	sets := map[string][][]byte{
		"A": byteVals("secret-a1", "shared-1", "secret-a2", "shared-2"),
		"B": byteVals("shared-2", "secret-b1", "shared-1", "secret-b2", "secret-b3"),
		"C": byteVals("shared-1", "shared-2", "secret-c1"),
	}
	runIntersect(t, mbs, isCfg, sets)
	mu.Lock()
	defer mu.Unlock()
	for _, m := range isCfg.Members {
		sub := submits[m]
		if n := len(sub.Tags) / TagSize; sub.Members != len(isCfg.Members) || n != len(sets[m]) {
			t.Fatalf("%s submitted %d tags for %d members, want %d for %d", m, n, sub.Members, len(sets[m]), len(isCfg.Members))
		}
		for _, el := range sets[m] {
			if bytes.Contains(sub.Tags, el) {
				t.Fatalf("%s's tags carry element %q", m, el)
			}
		}
		if n := len(verdicts[m].Common); n != 2 {
			t.Fatalf("%s's verdict holds %d positions, want the 2 of the result", m, n)
		}
	}
}

// TestIntersectReceivers runs an intersection whose only receiver is
// A: A gets the common elements, while B and C return nil and no
// verdict is addressed to them. The TTP's view is unchanged.
func TestIntersectReceivers(t *testing.T) {
	net := transport.NewMemNetwork()
	defer net.Close() //nolint:errcheck
	var (
		mu       sync.Mutex
		verdicts = map[string]int{}
	)
	net.SetDropFn(func(m transport.Message) bool {
		if m.Type == msgVerdictIntersect {
			mu.Lock()
			verdicts[m.To]++
			mu.Unlock()
		}
		return false
	})
	mbs := mailboxes(t, net, "A", "B", "C", "TTP")
	cfg := isCfg
	cfg.Receivers = []string{"A"}
	sets := map[string][][]byte{
		"A": byteVals("g1", "g2", "g3"),
		"B": byteVals("g3", "g1"),
		"C": byteVals("g1", "g3", "g4"),
	}
	res, sizes, common := runIntersect(t, mbs, cfg, sets)
	got := picked(sets["A"], res["A"])
	slices.Sort(got)
	if want := []string{"g1", "g3"}; !slices.Equal(got, want) {
		t.Fatalf("A: intersection %q, want %q", got, want)
	}
	for _, m := range []string{"B", "C"} {
		if res[m] != nil {
			t.Fatalf("non-receiver %s got %v, want nil", m, res[m])
		}
	}
	if !slices.Equal(sizes, []int{3, 2, 3}) || common != 2 {
		t.Fatalf("TTP saw sizes %v and %d common, want [3 2 3] and 2", sizes, common)
	}
	mu.Lock()
	defer mu.Unlock()
	if want := map[string]int{"A": 1}; !maps.Equal(verdicts, want) {
		t.Fatalf("verdicts sent %v, want %v", verdicts, want)
	}
}

// TestServeIntersectRefuses feeds the TTP hand-made submissions: each
// is refused as a protocol violation, and no verdict is sent.
func TestServeIntersectRefuses(t *testing.T) {
	tag := func(b byte) []byte { return bytes.Repeat([]byte{b}, TagSize) }
	sub := func(tags ...[]byte) *intersectSubmitBody {
		return &intersectSubmitBody{Members: len(isCfg.Members), Tags: bytes.Join(tags, nil)}
	}
	wrongK := sub(tag(1))
	wrongK.Members = 2
	type submission struct {
		from string
		body *intersectSubmitBody
	}
	cases := []struct {
		name string
		subs []submission
	}{
		{"non-member", []submission{{"A", sub(tag(1))}, {"M", sub(tag(1))}}},
		{"second submission", []submission{{"A", sub(tag(1))}, {"A", sub(tag(2))}}},
		{"tag width", []submission{{"A", sub(tag(1))}, {"B", sub(tag(1)[:TagSize-1])}}},
		{"member count", []submission{{"A", sub(tag(1))}, {"B", wrongK}}},
		{"one tag twice", []submission{{"A", sub(tag(1), tag(2), tag(1))}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			net := transport.NewMemNetwork()
			defer net.Close() //nolint:errcheck
			mbs := mailboxes(t, net, "A", "B", "C", "TTP", "M")
			for _, s := range tc.subs {
				if err := mbs[s.from].SendBody(ctx, "TTP", msgSubmitIntersect, isCfg.Session, s.body); err != nil {
					t.Fatal(err)
				}
			}
			_, _, err := ServeIntersect(ctx, mbs["TTP"], isCfg)
			if !errors.Is(err, smc.ErrProtocol) {
				t.Fatalf("err = %v, want %v", err, smc.ErrProtocol)
			}
			wait, cancelWait := context.WithTimeout(ctx, 20*time.Millisecond)
			defer cancelWait()
			for _, m := range isCfg.Members {
				if _, err := mbs[m].Expect(wait, msgVerdictIntersect, isCfg.Session); err == nil {
					t.Fatalf("a refused run sent %s a verdict", m)
				}
			}
		})
	}
}

// TestIntersectRefusesBadVerdict stands in for a TTP whose verdict
// names a position twice, out of order or past the member's
// submission: the member refuses it rather than map it.
func TestIntersectRefusesBadVerdict(t *testing.T) {
	cfg := IntersectConfig{Members: []string{"A", "B"}, Receivers: []string{"A"}, TTP: "TTP", Session: "bad"}
	for name, common := range map[string][]int{
		"past the end": {3},
		"negative":     {-1},
		"repeated":     {0, 0},
		"descending":   {1, 0},
	} {
		t.Run(name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			net := transport.NewMemNetwork()
			defer net.Close() //nolint:errcheck
			mbs := mailboxes(t, net, "A", "B", "TTP")
			// B's seed lets A derive the key; the TTP answers A at once.
			if err := mbs["B"].SendBody(ctx, "A", msgSeed, cfg.Session, &seedBody{}); err != nil {
				t.Fatal(err)
			}
			if err := mbs["TTP"].SendBody(ctx, "A", msgVerdictIntersect, cfg.Session, &intersectVerdictBody{Common: common}); err != nil {
				t.Fatal(err)
			}
			_, err := Intersect(ctx, mbs["A"], cfg, byteVals("g1", "g2", "g3"))
			if !errors.Is(err, smc.ErrProtocol) {
				t.Fatalf("err = %v, want %v", err, smc.ErrProtocol)
			}
		})
	}
}

func TestIntersectValidation(t *testing.T) {
	ctx := context.Background()
	net := transport.NewMemNetwork()
	defer net.Close() //nolint:errcheck
	mbs := mailboxes(t, net, "A", "M")
	if _, err := Intersect(ctx, mbs["M"], isCfg, nil); !errors.Is(err, smc.ErrProtocol) {
		t.Fatalf("non-member: err = %v", err)
	}
	ab := []string{"A", "B"}
	for name, bad := range map[string]IntersectConfig{
		"one member":          {Members: []string{"A"}, Receivers: []string{"A"}, TTP: "TTP", Session: "s"},
		"TTP is a member":     {Members: ab, Receivers: ab, TTP: "B", Session: "s"},
		"one member twice":    {Members: []string{"A", "A"}, Receivers: []string{"A"}, TTP: "TTP", Session: "s"},
		"empty member":        {Members: []string{"A", ""}, Receivers: []string{"A"}, TTP: "TTP", Session: "s"},
		"empty session":       {Members: ab, Receivers: ab, TTP: "TTP"},
		"no TTP":              {Members: ab, Receivers: ab, Session: "s"},
		"TTP among three":     {Members: []string{"A", "B", "C"}, Receivers: ab, TTP: "C", Session: "s"},
		"duplicate of three":  {Members: []string{"A", "B", "B"}, Receivers: ab, TTP: "TTP", Session: "s"},
		"no receivers":        {Members: ab, TTP: "TTP", Session: "s"},
		"non-member receiver": {Members: ab, Receivers: []string{"A", "C"}, TTP: "TTP", Session: "s"},
	} {
		if _, err := Intersect(ctx, mbs["A"], bad, nil); !errors.Is(err, smc.ErrProtocol) {
			t.Fatalf("%s: member err = %v", name, err)
		}
		if _, _, err := ServeIntersect(ctx, mbs["A"], bad); !errors.Is(err, smc.ErrProtocol) {
			t.Fatalf("%s: TTP err = %v", name, err)
		}
	}
}

// eqCfg is the intersection that a cross-node equality runs: the two
// holders of the compared attributes submit one keyed tag per glsn, and
// only the first holder learns which tags matched.
var eqCfg = IntersectConfig{
	Members:   []string{"A", "B"},
	Receivers: []string{"A"},
	TTP:       "TTP",
	Session:   "eq",
}

// TestServeBatchEqualRefuses feeds the TTP of a two-holder equality
// batch hand-made submissions: a submission from a node that holds
// neither attribute, or a tag of the wrong width, is refused as a
// protocol violation, and the receiving holder gets no verdict.
func TestServeBatchEqualRefuses(t *testing.T) {
	tag := bytes.Repeat([]byte{7}, TagSize)
	sub := func(tags ...[]byte) *intersectSubmitBody {
		return &intersectSubmitBody{Members: len(eqCfg.Members), Tags: bytes.Join(tags, nil)}
	}
	type submission struct {
		from string
		body *intersectSubmitBody
	}
	cases := []struct {
		name string
		subs []submission
	}{
		{"non-holder", []submission{{"A", sub(tag)}, {"M", sub(tag)}}},
		{"tag width", []submission{{"A", sub(tag)}, {"B", sub(tag[:TagSize-1])}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			net := transport.NewMemNetwork()
			defer net.Close() //nolint:errcheck
			mbs := mailboxes(t, net, "A", "B", "TTP", "M")
			for _, s := range tc.subs {
				if err := mbs[s.from].SendBody(ctx, "TTP", msgSubmitIntersect, eqCfg.Session, s.body); err != nil {
					t.Fatal(err)
				}
			}
			_, _, err := ServeIntersect(ctx, mbs["TTP"], eqCfg)
			if !errors.Is(err, smc.ErrProtocol) {
				t.Fatalf("err = %v, want %v", err, smc.ErrProtocol)
			}
			wait, cancelWait := context.WithTimeout(ctx, 20*time.Millisecond)
			defer cancelWait()
			if _, err := mbs["A"].Expect(wait, msgVerdictIntersect, eqCfg.Session); err == nil {
				t.Fatal("a refused run sent a verdict")
			}
		})
	}
}

// TestBatchEqualValidation checks that both holders and the TTP refuse
// a malformed two-holder equality configuration, and that a node
// holding neither attribute cannot join one.
func TestBatchEqualValidation(t *testing.T) {
	ctx := context.Background()
	net := transport.NewMemNetwork()
	defer net.Close() //nolint:errcheck
	mbs := mailboxes(t, net, "A", "M")
	if _, err := Intersect(ctx, mbs["M"], eqCfg, nil); !errors.Is(err, smc.ErrProtocol) {
		t.Fatalf("non-holder: err = %v", err)
	}
	for name, bad := range map[string]IntersectConfig{
		"TTP is a holder":     {Members: eqCfg.Members, Receivers: eqCfg.Receivers, TTP: "A", Session: "s"},
		"one holder twice":    {Members: []string{"A", "A"}, Receivers: eqCfg.Receivers, TTP: "TTP", Session: "s"},
		"empty session":       {Members: eqCfg.Members, Receivers: eqCfg.Receivers, TTP: "TTP"},
		"non-holder receiver": {Members: eqCfg.Members, Receivers: []string{"M"}, TTP: "TTP", Session: "s"},
	} {
		if _, err := Intersect(ctx, mbs["A"], bad, nil); !errors.Is(err, smc.ErrProtocol) {
			t.Fatalf("%s: holder err = %v", name, err)
		}
		if _, _, err := ServeIntersect(ctx, mbs["A"], bad); !errors.Is(err, smc.ErrProtocol) {
			t.Fatalf("%s: TTP err = %v", name, err)
		}
	}
}
