package intersect

import (
	"context"
	"fmt"
	"sort"
	"testing"
	"time"

	"confaudit/internal/mathx"
	"confaudit/internal/smc/smctest"
	"confaudit/internal/transport"
)

func runParties(t *testing.T, cfg Config, sets map[string][][]byte) map[string]*Result {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	results, err := smctest.RunParties(ctx, cfg.Ring, func(ctx context.Context, id string, mb *transport.Mailbox) (*Result, error) {
		return Run(ctx, mb, cfg, sets[id])
	})
	if err != nil {
		t.Fatal(err)
	}
	return results
}

func sortedStrings(bs [][]byte) []string {
	out := make([]string, len(bs))
	for i, b := range bs {
		out[i] = string(b)
	}
	sort.Strings(out)
	return out
}

// TestFigure4Exact reproduces the paper's Figure 4: S1={c,d,e},
// S2={d,e,f}, S3={e,f,g}; the intersection is exactly {e}.
func TestFigure4Exact(t *testing.T) {
	cfg := Config{
		Group:     mathx.Oakley768,
		Ring:      []string{"P1", "P2", "P3"},
		Receivers: []string{"P1", "P2", "P3"},
		Session:   "fig4",
	}
	sets := map[string][][]byte{
		"P1": {[]byte("c"), []byte("d"), []byte("e")},
		"P2": {[]byte("d"), []byte("e"), []byte("f")},
		"P3": {[]byte("e"), []byte("f"), []byte("g")},
	}
	results := runParties(t, cfg, sets)
	for node, res := range results {
		got := sortedStrings(res.Plaintext)
		if len(got) != 1 || got[0] != "e" {
			t.Fatalf("%s intersection = %v, want [e]", node, got)
		}
		if len(res.Encrypted) != 1 {
			t.Fatalf("%s encrypted intersection size = %d", node, len(res.Encrypted))
		}
	}
	// E132(e) = E321(e) = E213(e): all receivers computed the identical
	// fully-encrypted representative within one run.
	var want string
	for _, res := range results {
		got := string(res.Encrypted[0])
		if want == "" {
			want = got
		} else if got != want {
			t.Fatal("receivers disagree on the fully-encrypted common element")
		}
	}
}

func TestIntersectionVariousShapes(t *testing.T) {
	cases := []struct {
		name string
		sets map[string][][]byte
		want []string
	}{
		{
			name: "empty intersection",
			sets: map[string][][]byte{
				"P1": {[]byte("a"), []byte("b")},
				"P2": {[]byte("c"), []byte("d")},
				"P3": {[]byte("e")},
			},
			want: []string{},
		},
		{
			name: "all equal",
			sets: map[string][][]byte{
				"P1": {[]byte("x"), []byte("y")},
				"P2": {[]byte("y"), []byte("x")},
				"P3": {[]byte("x"), []byte("y")},
			},
			want: []string{"x", "y"},
		},
		{
			name: "one empty set",
			sets: map[string][][]byte{
				"P1": {},
				"P2": {[]byte("a")},
				"P3": {[]byte("a")},
			},
			want: []string{},
		},
		{
			name: "duplicates within a set",
			sets: map[string][][]byte{
				"P1": {[]byte("a"), []byte("a"), []byte("b")},
				"P2": {[]byte("a"), []byte("b")},
				"P3": {[]byte("b"), []byte("a")},
			},
			want: []string{"a", "b"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{
				Group:     mathx.Oakley768,
				Ring:      []string{"P1", "P2", "P3"},
				Receivers: []string{"P2"},
				Session:   "s-" + tc.name,
			}
			results := runParties(t, cfg, tc.sets)
			got := sortedStrings(results["P2"].Plaintext)
			if len(got) != len(tc.want) {
				t.Fatalf("intersection = %v, want %v", got, tc.want)
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Fatalf("intersection = %v, want %v", got, tc.want)
				}
			}
			// Non-receivers learn nothing.
			for _, node := range []string{"P1", "P3"} {
				if len(results[node].Plaintext) != 0 || len(results[node].Encrypted) != 0 {
					t.Fatalf("non-receiver %s obtained a result", node)
				}
			}
		})
	}
}

func TestTwoPartyIntersection(t *testing.T) {
	cfg := Config{
		Group:     mathx.Oakley768,
		Ring:      []string{"A", "B"},
		Receivers: []string{"A"},
		Session:   "two",
	}
	sets := map[string][][]byte{
		"A": {[]byte("139aef78"), []byte("139aef80"), []byte("139aef81")},
		"B": {[]byte("139aef80"), []byte("139aef82")},
	}
	results := runParties(t, cfg, sets)
	got := sortedStrings(results["A"].Plaintext)
	if len(got) != 1 || got[0] != "139aef80" {
		t.Fatalf("intersection = %v, want [139aef80]", got)
	}
}

func TestFivePartyLargeSets(t *testing.T) {
	ring := []string{"P0", "P1", "P2", "P3", "P4"}
	sets := make(map[string][][]byte, len(ring))
	// Every party holds 0..19+idx; intersection is 0..19.
	for idx, node := range ring {
		var s [][]byte
		for v := 0; v < 20+idx; v++ {
			s = append(s, []byte(fmt.Sprintf("el-%03d", v)))
		}
		sets[node] = s
	}
	cfg := Config{
		Group:     mathx.Oakley768,
		Ring:      ring,
		Receivers: []string{"P0", "P4"},
		Session:   "five",
	}
	results := runParties(t, cfg, sets)
	for _, r := range []string{"P0", "P4"} {
		if len(results[r].Plaintext) != 20 {
			t.Fatalf("%s intersection size = %d, want 20", r, len(results[r].Plaintext))
		}
	}
}

func TestConfigValidation(t *testing.T) {
	ctx := context.Background()
	net := transport.NewMemNetwork()
	defer net.Close() //nolint:errcheck
	ep, err := net.Endpoint("A")
	if err != nil {
		t.Fatal(err)
	}
	mb := transport.NewMailbox(ep)
	defer mb.Close() //nolint:errcheck

	base := Config{
		Group:     mathx.Oakley768,
		Ring:      []string{"A", "B"},
		Receivers: []string{"A"},
		Session:   "v",
	}
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"nil group", func(c *Config) { c.Group = nil }},
		{"short ring", func(c *Config) { c.Ring = []string{"A"} }},
		{"dup ring", func(c *Config) { c.Ring = []string{"A", "A"} }},
		{"no receivers", func(c *Config) { c.Receivers = nil }},
		{"foreign receiver", func(c *Config) { c.Receivers = []string{"Z"} }},
		{"empty session", func(c *Config) { c.Session = "" }},
		{"self not in ring", func(c *Config) { c.Ring = []string{"B", "C"}; c.Receivers = []string{"B"} }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			cfg.Ring = append([]string(nil), base.Ring...)
			cfg.Receivers = append([]string(nil), base.Receivers...)
			tc.mutate(&cfg)
			if _, err := Run(ctx, mb, cfg, nil); err == nil {
				t.Fatal("invalid config accepted")
			}
		})
	}
}

func BenchmarkIntersect3Party(b *testing.B)  { benchIntersect(b, 3, 16) }
func BenchmarkIntersect5Party(b *testing.B)  { benchIntersect(b, 5, 16) }
func BenchmarkIntersect3x64Set(b *testing.B) { benchIntersect(b, 3, 64) }

func benchIntersect(b *testing.B, parties, setSize int) {
	ctx := context.Background()
	ring := make([]string, parties)
	sets := make(map[string][][]byte, parties)
	for i := range ring {
		ring[i] = fmt.Sprintf("P%d", i)
		s := make([][]byte, setSize)
		for j := range s {
			s[j] = []byte(fmt.Sprintf("common-%04d", j))
		}
		sets[ring[i]] = s
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := Config{
			Group:     mathx.Oakley768,
			Ring:      ring,
			Receivers: []string{ring[0]},
			Session:   fmt.Sprintf("bench-%d", i),
		}
		if _, err := smctest.RunParties(ctx, ring, func(ctx context.Context, id string, mb *transport.Mailbox) (struct{}, error) {
			_, err := Run(ctx, mb, cfg, sets[id])
			return struct{}{}, err
		}); err != nil {
			b.Fatal(err)
		}
	}
}
