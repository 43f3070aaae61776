package intersect

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

// TestChunkedRelay drives full protocol runs with sets on both sides of
// the 64-block relay chunk boundary (64, 65, 66 and 130 elements), so
// they span one, two or three relay messages, plus the empty- and
// single-element edge cases that collapse to one (possibly empty) chunk.
func TestChunkedRelay(t *testing.T) {
	cases := []struct {
		name string
		sets map[string][][]byte
		want []string
	}{
		{
			name: "multi-chunk overlap",
			sets: map[string][][]byte{
				"P1": span(0, 130),
				"P2": span(40, 170),
				"P3": span(60, 125),
			},
			want: sortedStrings(span(60, 125)),
		},
		{
			name: "one empty set",
			sets: map[string][][]byte{
				"P1": span(0, 65),
				"P2": {},
				"P3": span(0, 64),
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
				"P1": span(0, 64),
				"P2": span(0, 65),
				"P3": span(63, 129),
			},
			want: []string{"el-063"},
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
