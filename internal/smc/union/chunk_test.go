package union

import (
	"fmt"
	"testing"

	"confaudit/internal/mathx"
)

// span returns the elements el-lo .. el-(hi-1).
func span(lo, hi int) [][]byte {
	out := make([][]byte, 0, hi-lo)
	for v := lo; v < hi; v++ {
		out = append(out, []byte(fmt.Sprintf("el-%03d", v)))
	}
	return out
}

// TestChunkedRelay drives full union runs with phase-1 sets on both
// sides of the 64-block relay chunk boundary (65 and 130 elements span
// two and three relay messages), including the empty- and
// single-element edge cases.
func TestChunkedRelay(t *testing.T) {
	cases := []struct {
		name string
		sets map[string][][]byte
		want []string
	}{
		{
			name: "multi-chunk",
			sets: map[string][][]byte{
				"P1": span(0, 130),
				"P2": span(100, 165),
				"P3": {[]byte("g")},
			},
			want: asStrings(append(span(0, 165), []byte("g"))),
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
