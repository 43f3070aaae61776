package intersect

import (
	"fmt"
	"testing"

	"confaudit/internal/mathx"
)

// TestChunkedRelay drives full protocol runs with a chunk size
// small enough that every set spans multiple relay messages, covering
// multi-chunk reassembly plus the empty- and single-element edge cases
// that collapse to one (possibly empty) chunk.
func TestChunkedRelay(t *testing.T) {
	defer SetRelayChunkSize(2)()
	cases := []struct {
		name string
		sets map[string][][]byte
		want []string
	}{
		{
			name: "multi-chunk overlap",
			sets: map[string][][]byte{
				"P1": {[]byte("a"), []byte("b"), []byte("c"), []byte("d"), []byte("e")},
				"P2": {[]byte("b"), []byte("c"), []byte("d"), []byte("e"), []byte("f")},
				"P3": {[]byte("c"), []byte("d"), []byte("e"), []byte("f"), []byte("g")},
			},
			want: []string{"c", "d", "e"},
		},
		{
			name: "one empty set",
			sets: map[string][][]byte{
				"P1": {[]byte("a"), []byte("b"), []byte("c")},
				"P2": {},
				"P3": {[]byte("a"), []byte("c")},
			},
			want: []string{},
		},
		{
			name: "single-element sets",
			sets: map[string][][]byte{
				"P1": {[]byte("x")},
				"P2": {[]byte("x")},
				"P3": {[]byte("x")},
			},
			want: []string{"x"},
		},
		{
			name: "uneven sizes across chunk boundary",
			sets: map[string][][]byte{
				"P1": {[]byte("k1"), []byte("k2"), []byte("k3"), []byte("k4")},
				"P2": {[]byte("k4")},
				"P3": {[]byte("k2"), []byte("k4"), []byte("k9")},
			},
			want: []string{"k4"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{
				Group:     mathx.Oakley768,
				Ring:      []string{"P1", "P2", "P3"},
				Receivers: []string{"P1", "P2", "P3"},
				Session:   "chunk/" + tc.name,
			}
			results := runParties(t, cfg, tc.sets)
			for node, res := range results {
				got := sortedStrings(res.Plaintext)
				if fmt.Sprint(got) != fmt.Sprint(tc.want) {
					t.Errorf("%s: intersection %v, want %v", node, got, tc.want)
				}
			}
		})
	}
}
