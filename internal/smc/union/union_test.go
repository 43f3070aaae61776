package union

import (
	"bytes"
	"context"
	"fmt"
	"sort"
	"testing"
	"time"

	"confaudit/internal/mathx"
	"confaudit/internal/smc/smctest"
	"confaudit/internal/transport"
)

func runParties(t *testing.T, cfg Config, sets map[string][][]byte) map[string][][]byte {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	results, err := smctest.RunParties(ctx, cfg.Ring, func(ctx context.Context, id string, mb *transport.Mailbox) ([][]byte, error) {
		return Run(ctx, mb, cfg, sets[id])
	})
	if err != nil {
		t.Fatal(err)
	}
	return results
}

func asStrings(bs [][]byte) []string {
	out := make([]string, len(bs))
	for i, b := range bs {
		out[i] = string(b)
	}
	sort.Strings(out)
	return out
}

func TestUnionBasic(t *testing.T) {
	cfg := Config{
		Group:     mathx.Oakley768,
		Ring:      []string{"P1", "P2", "P3"},
		Receivers: []string{"P1", "P2", "P3"},
		Session:   "u1",
	}
	// The Figure 4 sets: union must be {c,d,e,f,g}.
	sets := map[string][][]byte{
		"P1": {[]byte("c"), []byte("d"), []byte("e")},
		"P2": {[]byte("d"), []byte("e"), []byte("f")},
		"P3": {[]byte("e"), []byte("f"), []byte("g")},
	}
	want := []string{"c", "d", "e", "f", "g"}
	results := runParties(t, cfg, sets)
	for node, res := range results {
		got := asStrings(res)
		if len(got) != len(want) {
			t.Fatalf("%s union = %v, want %v", node, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s union = %v, want %v", node, got, want)
			}
		}
	}
}

func TestUnionShapes(t *testing.T) {
	cases := []struct {
		name string
		sets map[string][][]byte
		want []string
	}{
		{
			name: "disjoint",
			sets: map[string][][]byte{
				"P1": {[]byte("a")},
				"P2": {[]byte("b")},
				"P3": {[]byte("c")},
			},
			want: []string{"a", "b", "c"},
		},
		{
			name: "identical",
			sets: map[string][][]byte{
				"P1": {[]byte("x")},
				"P2": {[]byte("x")},
				"P3": {[]byte("x")},
			},
			want: []string{"x"},
		},
		{
			name: "with empties and dups",
			sets: map[string][][]byte{
				"P1": {},
				"P2": {[]byte("q"), []byte("q")},
				"P3": {[]byte("q"), []byte("r")},
			},
			want: []string{"q", "r"},
		},
		{
			name: "all empty",
			sets: map[string][][]byte{"P1": {}, "P2": {}, "P3": {}},
			want: []string{},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{
				Group:     mathx.Oakley768,
				Ring:      []string{"P1", "P2", "P3"},
				Receivers: []string{"P3"},
				Session:   "u-" + tc.name,
			}
			results := runParties(t, cfg, tc.sets)
			got := asStrings(results["P3"])
			if len(got) != len(tc.want) {
				t.Fatalf("union = %v, want %v", got, tc.want)
			}
			for i := range tc.want {
				if got[i] != tc.want[i] {
					t.Fatalf("union = %v, want %v", got, tc.want)
				}
			}
			for _, other := range []string{"P1", "P2"} {
				if results[other] != nil {
					t.Fatalf("non-receiver %s obtained the union", other)
				}
			}
		})
	}
}

func TestUnionBinaryElementsSurvive(t *testing.T) {
	cfg := Config{
		Group:     mathx.Oakley768,
		Ring:      []string{"A", "B"},
		Receivers: []string{"A"},
		Session:   "bin",
	}
	blob := []byte{0x00, 0xFF, 0x01, 0x00, 0x7F}
	sets := map[string][][]byte{
		"A": {blob},
		"B": {[]byte("text")},
	}
	results := runParties(t, cfg, sets)
	found := false
	for _, el := range results["A"] {
		if bytes.Equal(el, blob) {
			found = true
		}
	}
	if !found {
		t.Fatalf("binary element (with leading zero) not recovered: %q", results["A"])
	}
}

func TestEmbedExtractRoundTrip(t *testing.T) {
	g := mathx.Oakley768
	cases := [][]byte{
		[]byte(""),
		[]byte("x"),
		[]byte("a longer element with spaces"),
		{0x00, 0x00, 0x01},
		bytes.Repeat([]byte{0xAB}, 94), // max capacity for 96-byte blocks
	}
	for _, data := range cases {
		blk, err := EmbedElement(g, data)
		if err != nil {
			t.Fatalf("EmbedElement(%q): %v", data, err)
		}
		back, err := ExtractElement(blk)
		if err != nil {
			t.Fatalf("ExtractElement: %v", err)
		}
		if !bytes.Equal(back, data) {
			t.Fatalf("round trip %q -> %q", data, back)
		}
	}
	if _, err := EmbedElement(g, bytes.Repeat([]byte{1}, 95)); err == nil {
		t.Fatal("oversized element accepted")
	}
	if _, err := ExtractElement(make([]byte, 4)); err == nil {
		t.Fatal("all-zero block accepted")
	}
	if _, err := ExtractElement([]byte{0x02, 0x01}); err == nil {
		t.Fatal("malformed prefix accepted")
	}
}

func TestUnionConfigValidation(t *testing.T) {
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
		{Ring: []string{"A", "B"}, Receivers: []string{"A"}, Session: "s"},                         // nil group
		{Group: mathx.Oakley768, Ring: []string{"A"}, Receivers: []string{"A"}, Session: "s"},      // short ring
		{Group: mathx.Oakley768, Ring: []string{"A", "B"}, Session: "s"},                           // no receivers
		{Group: mathx.Oakley768, Ring: []string{"A", "B"}, Receivers: []string{"A"}},               // no session
		{Group: mathx.Oakley768, Ring: []string{"B", "C"}, Receivers: []string{"B"}, Session: "s"}, // self absent
		{Group: mathx.Oakley768, Ring: []string{"A", "A"}, Receivers: []string{"A"}, Session: "s"}, // dup ring
		{Group: mathx.Oakley768, Ring: []string{"A", "B"}, Receivers: []string{"Z"}, Session: "s"}, // foreign receiver
	}
	for i, cfg := range cases {
		if _, err := Run(ctx, mb, cfg, nil); err == nil {
			t.Fatalf("case %d: invalid config accepted", i)
		}
	}
}

// BenchmarkUnion3Party runs disjoint sets, so the collector holds a
// third of the union.
func BenchmarkUnion3Party(b *testing.B) {
	ring := []string{"P0", "P1", "P2"}
	sets := make(map[string][][]byte, 3)
	for i, node := range ring {
		s := make([][]byte, 16)
		for j := range s {
			s[j] = []byte(fmt.Sprintf("el-%d-%02d", i, j))
		}
		sets[node] = s
	}
	benchUnion(b, ring, sets)
}

// BenchmarkUnion2PartyOverlap is shaped like the union-small audit
// query: the collector holds 50 elements, the other party 20, and 10
// are shared, so the collector already holds 50 of the 60.
func BenchmarkUnion2PartyOverlap(b *testing.B) {
	benchUnion(b, []string{"P0", "P1"}, map[string][][]byte{
		"P0": span(0, 50),
		"P1": span(40, 60),
	})
}

// benchUnion runs one union per iteration with ring[0], the collector,
// as the only receiver.
func benchUnion(b *testing.B, ring []string, sets map[string][][]byte) {
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := Config{
			Group:     mathx.Oakley768,
			Ring:      ring,
			Receivers: ring[:1],
			Session:   fmt.Sprintf("b%d", i),
		}
		if _, err := smctest.RunParties(ctx, ring, func(ctx context.Context, id string, mb *transport.Mailbox) (struct{}, error) {
			_, err := Run(ctx, mb, cfg, sets[id])
			return struct{}{}, err
		}); err != nil {
			b.Fatal(err)
		}
	}
}
