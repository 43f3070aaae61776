package smc

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"confaudit/internal/wire"
)

func TestRelayWireRoundTrip(t *testing.T) {
	cases := []struct {
		name string
		w    RelayWire
	}{
		{"empty", RelayWire{Total: 1}},
		{"packed", RelayWire{Origin: "P1", Hops: 3, Seq: 2, Total: 7, BlockLen: 96, Packed: bytes.Repeat([]byte{0xAB}, 96*4)}},
		{"final-shaped", RelayWire{Origin: "node-with-long-name", Total: 1, BlockLen: 8, Packed: []byte{1, 2, 3, 4, 5, 6, 7, 8}}},
		{"blocks-shaped", RelayWire{Hops: 2, Total: 1, BlockLen: 5, Packed: []byte("plaintexts")}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			enc := tc.w.AppendBinary(nil)
			var got RelayWire
			if err := got.DecodeBinary(enc); err != nil {
				t.Fatal(err)
			}
			if got.Origin != tc.w.Origin || got.Hops != tc.w.Hops || got.Seq != tc.w.Seq ||
				got.Total != tc.w.Total || got.BlockLen != tc.w.BlockLen {
				t.Fatalf("scalar mismatch: %+v != %+v", got, tc.w)
			}
			if !bytes.Equal(got.Packed, tc.w.Packed) {
				t.Fatalf("packed mismatch: % x != % x", got.Packed, tc.w.Packed)
			}
		})
	}
}

// TestRelayWireDecodeCopies pins the recycled-buffer contract: mutating
// the source after decode must not change the decoded body.
func TestRelayWireDecodeCopies(t *testing.T) {
	w := RelayWire{Origin: "P1", Total: 1, BlockLen: 2, Packed: []byte{1, 2, 3, 4}}
	enc := w.AppendBinary(nil)
	var got RelayWire
	if err := got.DecodeBinary(enc); err != nil {
		t.Fatal(err)
	}
	for i := range enc {
		enc[i] = 0xFF
	}
	if !bytes.Equal(got.Packed, []byte{1, 2, 3, 4}) {
		t.Fatalf("decode aliased the source buffer: % x", got.Packed)
	}
	blocks, err := got.Unpack()
	if err != nil {
		t.Fatal(err)
	}
	if len(blocks) != 2 || !bytes.Equal(blocks[0], []byte{1, 2}) || !bytes.Equal(blocks[1], []byte{3, 4}) {
		t.Fatalf("unpacked %v", blocks)
	}
}

func TestRelayWireDecodeRejectsMalformed(t *testing.T) {
	good := (&RelayWire{Origin: "P1", Total: 1, Packed: []byte{1, 2, 3}, BlockLen: 3}).AppendBinary(nil)
	enc := func(w RelayWire) []byte { return w.AppendBinary(nil) }
	cases := map[string][]byte{
		"empty":             {},
		"truncated origin":  good[:1],
		"truncated packed":  good[:len(good)-2],
		"trailing garbage":  append(append([]byte(nil), good...), 0x00),
		"oversized uvarint": bytes.Repeat([]byte{0xFF}, 12),
		"zero chunks":       enc(RelayWire{Origin: "P1", Total: 0, BlockLen: 3, Packed: []byte{1, 2, 3}}),
		"ragged packed run": enc(RelayWire{Origin: "P1", Total: 1, BlockLen: 2, Packed: []byte{1, 2, 3}}),
		"zero block width":  enc(RelayWire{Origin: "P1", Total: 1, BlockLen: 0, Packed: []byte{1, 2, 3}}),
		"overlong uvarint":  append([]byte{0x82, 0x00}, good[1:]...),
	}
	for name, src := range cases {
		var w RelayWire
		if err := w.DecodeBinary(src); err == nil {
			t.Errorf("%s: decoded", name)
		} else if !errors.Is(err, ErrBadWireValue) || !errors.Is(err, wire.ErrMalformed) {
			t.Errorf("%s: error %v is not ErrBadWireValue and wire.ErrMalformed", name, err)
		}
	}
}

// TestRelayWireSmallBoundary pins that every framing field decodes
// through the wire package's 32-bit guard: 2^31 is refused while
// MaxInt32 still decodes. The guard itself is pinned in internal/wire.
func TestRelayWireSmallBoundary(t *testing.T) {
	fields := map[string]func(*RelayWire) *int{
		"hops":  func(w *RelayWire) *int { return &w.Hops },
		"seq":   func(w *RelayWire) *int { return &w.Seq },
		"total": func(w *RelayWire) *int { return &w.Total },
		"width": func(w *RelayWire) *int { return &w.BlockLen },
	}
	for name, field := range fields {
		w := RelayWire{Origin: "P1", Total: 1}
		*field(&w) = 1 << 31
		var over RelayWire
		if err := over.DecodeBinary(w.AppendBinary(nil)); !errors.Is(err, wire.ErrMalformed) {
			t.Errorf("%s = 2^31: err %v, want wire.ErrMalformed", name, err)
		}
		w = RelayWire{Origin: "P1", Total: 1}
		*field(&w) = math.MaxInt32
		var got RelayWire
		if err := got.DecodeBinary(w.AppendBinary(nil)); err != nil || *field(&got) != math.MaxInt32 {
			t.Errorf("%s = MaxInt32: decoded %d, %v", name, *field(&got), err)
		}
	}
}

// FuzzRelayWireRoundTrip feeds the relay body decoder — the one every
// ring peer's bytes reach — arbitrary input. It must never panic, and
// every body it accepts must re-encode to exactly the input bytes. The
// checked-in corpus holds the encodings of
// TestRelayWireRoundTrip and TestRelayWireDecodeRejectsMalformed.
func FuzzRelayWireRoundTrip(f *testing.F) {
	f.Fuzz(func(t *testing.T, src []byte) {
		var w RelayWire
		if err := w.DecodeBinary(src); err != nil {
			return
		}
		enc := w.AppendBinary(nil)
		if !bytes.Equal(enc, src) {
			t.Fatalf("accepted % x, re-encoded as % x", src, enc)
		}
	})
}

// TestPackBlocksRejectsRagged pins the single framing: a batch that is
// not uniformly wide cannot be packed, and there is no other encoding
// to fall back to.
func TestPackBlocksRejectsRagged(t *testing.T) {
	for name, blocks := range map[string][][]byte{
		"ragged":     {{1, 2}, {3}},
		"zero width": {{}, {}},
	} {
		if _, err := NewRelayWire("P1", 1, blocks, 0, 1); !errors.Is(err, ErrProtocol) {
			t.Errorf("%s: err %v, want ErrProtocol", name, err)
		}
	}
}
