package union

import (
	"fmt"
	"testing"

	"confaudit/internal/mathx"
)

// TestChunkedRelay drives full union runs with a chunk size small
// enough that phase-1 sets span multiple relay messages, including the
// empty- and single-element edge cases.
func TestChunkedRelay(t *testing.T) {
	defer SetRelayChunkSize(2)()
	cases := []struct {
		name string
		sets map[string][][]byte
		want []string
	}{
		{
			name: "multi-chunk",
			sets: map[string][][]byte{
				"P1": {[]byte("a"), []byte("b"), []byte("c"), []byte("d"), []byte("e")},
				"P2": {[]byte("d"), []byte("e"), []byte("f")},
				"P3": {[]byte("g")},
			},
			want: []string{"a", "b", "c", "d", "e", "f", "g"},
		},
		{
			name: "empty and single",
			sets: map[string][][]byte{
				"P1": {},
				"P2": {[]byte("only")},
				"P3": {},
			},
			want: []string{"only"},
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
			for node, got := range results {
				if fmt.Sprint(asStrings(got)) != fmt.Sprint(tc.want) {
					t.Errorf("%s: union %v, want %v", node, asStrings(got), tc.want)
				}
			}
		})
	}
}
