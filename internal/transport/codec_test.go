package transport

import (
	"bufio"
	"bytes"
	"testing"
)

func sameEnvelope(got, want Message) bool {
	return got.From == want.From && got.To == want.To && got.Type == want.Type &&
		got.Session == want.Session && got.ReplyAddr == want.ReplyAddr &&
		got.TraceSession == want.TraceSession &&
		got.TraceSpan == want.TraceSpan && bytes.Equal(got.Payload, want.Payload)
}

func TestBinaryEnvelopeRoundTrip(t *testing.T) {
	cases := []Message{
		{},
		{From: "A", To: "B", Type: "intersect.relay", Session: "s1", Payload: []byte(`{"x":1}`)},
		{From: "P1", To: "P2", Type: "t", Session: "s", ReplyAddr: "127.0.0.1:9000", Payload: bytes.Repeat([]byte{0x00, 0xFF, 0x7B, 0xD1}, 64)},
		{Type: "only-type"},
		{Payload: []byte{binMagic}},
		{From: "A", To: "B", Type: "audit.exec", Session: "q1", TraceSession: "q1", TraceSpan: "A:7"},
	}
	for i, want := range cases {
		body := appendBinaryMessage(nil, &want)
		got, err := decodeBinaryMessage(body)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if !sameEnvelope(got, want) {
			t.Fatalf("case %d: round trip %+v != %+v", i, got, want)
		}
	}
}

func TestBinaryEnvelopeRejectsMalformed(t *testing.T) {
	good := appendBinaryMessage(nil, &Message{From: "A", To: "B", Type: "t", Session: "s", Payload: []byte("p")})
	cases := map[string][]byte{
		"empty":          {},
		"magic only":     {binMagic},
		"wrong magic":    {0x7B, frameVersion},
		"wrong version":  {binMagic, 99},
		"retired v2":     {binMagic, 2},
		"truncated":      good[:len(good)-1],
		"trailing bytes": append(append([]byte{}, good...), 0x00),
		"length overrun": {binMagic, frameVersion, 0xFF},
		// From's length 1 as the overlong varint 0x81 0x00: it would
		// decode to a message that re-encodes one byte shorter.
		"overlong length": append([]byte{binMagic, frameVersion, 0x81, 0x00}, good[3:]...),
	}
	for name, body := range cases {
		if _, err := decodeBinaryMessage(body); err == nil {
			t.Errorf("%s: malformed frame accepted", name)
		}
	}
}

// TestBinaryFrameWireRoundTrip frames a binary body through the socket
// codec, and the receiver decodes it from the payload.
func TestBinaryFrameWireRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	msg := newTestMessage(t, &testBody{Origin: "A", Packed: []byte("raw \x00 bytes")})
	msg.From, msg.TraceSession, msg.TraceSpan = "A", "s", "A:3"
	if err := writeFrame(bw, &msg); err != nil {
		t.Fatal(err)
	}
	got, err := readFrame(bufio.NewReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	var out testBody
	if err := Unmarshal(got.Payload, &out); err != nil {
		t.Fatal(err)
	}
	if got.From != "A" || got.TraceSpan != "A:3" || out.Origin != "A" || string(out.Packed) != "raw \x00 bytes" {
		t.Fatalf("round trip %+v / %+v", got, out)
	}
}

// TestBinaryFrameTooLargeOnWrite refuses a body whose encoding would
// exceed the frame bound.
func TestBinaryFrameTooLargeOnWrite(t *testing.T) {
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	msg := newTestMessage(t, &bigBody{n: maxFrame + 1})
	if err := writeFrame(bw, &msg); err == nil {
		t.Fatal("oversized binary frame written")
	}
	if buf.Len() != 0 {
		t.Fatalf("%d bytes reached the wire", buf.Len())
	}
}

// bigBody is a BinaryBody of n zero bytes.
type bigBody struct{ n int }

func (b *bigBody) AppendBinary(dst []byte) []byte { return append(dst, make([]byte, b.n)...) }
func (b *bigBody) DecodeBinary([]byte) error      { return nil }

// FuzzEnvelopeRoundTrip fuzzes both directions of the binary codec:
// arbitrary envelopes must round-trip bit-exactly, arbitrary bytes must
// never panic the decoder, and any bytes it accepts must re-encode to
// exactly themselves: the codec admits one encoding per envelope.
func FuzzEnvelopeRoundTrip(f *testing.F) {
	f.Add("A", "B", "intersect.relay", "s1", "127.0.0.1:9", "s1", "A:1", []byte(`{"x":1}`), []byte{})
	f.Add("", "", "", "", "", "", "", []byte(nil), []byte{binMagic, frameVersion})
	f.Add("P1", "P2", "union.collect", "s", "", "", "", bytes.Repeat([]byte{0xD1}, 33), []byte{binMagic, frameVersion, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, from, to, typ, session, replyAddr, traceSession, traceSpan string, payload, raw []byte) {
		want := Message{From: from, To: to, Type: typ, Session: session, ReplyAddr: replyAddr, TraceSession: traceSession, TraceSpan: traceSpan, Payload: payload}
		body := appendBinaryMessage(nil, &want)
		got, err := decodeBinaryMessage(body)
		if err != nil {
			t.Fatalf("decoding own encoding: %v", err)
		}
		if !sameEnvelope(got, want) {
			t.Fatalf("round trip %+v != %+v", got, want)
		}
		if junk, err := decodeBinaryMessage(raw); err == nil {
			if re := appendBinaryMessage(nil, &junk); !bytes.Equal(raw, re) {
				t.Fatalf("accepted %x, which re-encodes as %x", raw, re)
			}
		}
	})
}
