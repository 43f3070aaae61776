package transport

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"
)

// testBody is a minimal BinaryBody mirroring the relay-body shape: a
// string field plus a packed byte run.
type testBody struct {
	Origin string `json:"origin"`
	Packed []byte `json:"packed,omitempty"`
}

func (b *testBody) AppendBinary(dst []byte) []byte {
	dst = append(dst, byte(len(b.Origin)))
	dst = append(dst, b.Origin...)
	dst = append(dst, byte(len(b.Packed)))
	return append(dst, b.Packed...)
}

func (b *testBody) DecodeBinary(src []byte) error {
	if len(src) < 1 {
		return fmt.Errorf("short body")
	}
	n := int(src[0])
	src = src[1:]
	if len(src) < n+1 {
		return fmt.Errorf("short origin")
	}
	b.Origin = string(src[:n])
	src = src[n:]
	m := int(src[0])
	src = src[1:]
	if len(src) != m {
		return fmt.Errorf("bad packed length")
	}
	b.Packed = append([]byte(nil), src...)
	return nil
}

// newTestMessage builds a message to B carrying body.
func newTestMessage(t *testing.T, body any) Message {
	t.Helper()
	msg, err := NewMessage("B", "t", "s", body)
	if err != nil {
		t.Fatal(err)
	}
	return msg
}

func TestBinaryPayloadRoundTrip(t *testing.T) {
	in := &testBody{Origin: "N1", Packed: []byte{1, 2, 3, 4}}
	msg := newTestMessage(t, in)
	if !IsBinaryPayload(msg.Payload) {
		t.Fatalf("payload not binary: % x", msg.Payload)
	}
	var out testBody
	if err := Unmarshal(msg.Payload, &out); err != nil {
		t.Fatal(err)
	}
	if out.Origin != in.Origin || !bytes.Equal(out.Packed, in.Packed) {
		t.Fatalf("round trip mismatch: %+v", out)
	}
}

func TestBinaryPayloadVersionRejected(t *testing.T) {
	msg := newTestMessage(t, &testBody{Origin: "x"})
	msg.Payload[1] = payloadVersion + 1
	var out testBody
	if err := Unmarshal(msg.Payload, &out); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("future payload version accepted: %v", err)
	}
}

func TestBinaryPayloadNeedsBinaryBody(t *testing.T) {
	msg := newTestMessage(t, &testBody{Origin: "x"})
	var plain struct {
		Origin string `json:"origin"`
	}
	if err := Unmarshal(msg.Payload, &plain); err == nil {
		t.Fatal("binary payload decoded into a JSON-only target")
	}
	// And the converse: a BinaryBody has no JSON decoding to fall back on.
	var out testBody
	if err := Unmarshal([]byte(`{"Origin":"x"}`), &out); err == nil {
		t.Fatal("JSON payload decoded into a binary body")
	}
}

// TestMemNetNoAliasingAfterSend pins the zero-copy contract on the
// in-memory transport: once SendBody returns, the sender may mutate the
// buffers backing the body without corrupting what the receiver sees.
func TestMemNetNoAliasingAfterSend(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	net := NewMemNetwork()
	epA, err := net.Endpoint("A")
	if err != nil {
		t.Fatal(err)
	}
	mbA := NewMailbox(epA)
	defer mbA.Close() //nolint:errcheck
	epB, err := net.Endpoint("B")
	if err != nil {
		t.Fatal(err)
	}
	packed := []byte{10, 20, 30, 40}
	body := &testBody{Origin: "A", Packed: packed}
	if err := mbA.SendBody(ctx, "B", "t", "s", body); err != nil {
		t.Fatal(err)
	}
	for i := range packed {
		packed[i] = 0xFF // sender reuses the buffer immediately
	}
	got, err := epB.Recv(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var out testBody
	if err := Unmarshal(got.Payload, &out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Packed, []byte{10, 20, 30, 40}) {
		t.Fatalf("receiver saw mutated buffer: % x", out.Packed)
	}
}

// jsonBody is a body with no binary encoding, so it travels as JSON.
type jsonBody struct {
	Origin string `json:"origin"`
	Packed []byte `json:"packed,omitempty"`
}

// TestMailboxSendBodyCodecs sends a binary body and a JSON body over
// both transports. Each decodes with Unmarshal into a target of its own
// codec, and is refused by a target of the other codec.
func TestMailboxSendBodyCodecs(t *testing.T) {
	networks := map[string]func() Network{
		"mem": func() Network { return NewMemNetwork() },
		"tcp": func() Network {
			return NewTCPNetwork(map[string]string{"A": "127.0.0.1:0", "B": "127.0.0.1:0"})
		},
	}
	bodies := []struct {
		name string
		body any
		// own and other make decode targets of the body's codec and of
		// the other one.
		own, other func() any
	}{
		{"binary", &testBody{Origin: "A", Packed: []byte{1, 2, 3}},
			func() any { return new(testBody) }, func() any { return new(jsonBody) }},
		{"json", &jsonBody{Origin: "A", Packed: []byte{1, 2, 3}},
			func() any { return new(jsonBody) }, func() any { return new(testBody) }},
	}
	for netName, newNet := range networks {
		t.Run(netName, func(t *testing.T) {
			ctx := testCtx(t)
			net := newNet()
			epA, err := net.Endpoint("A")
			if err != nil {
				t.Fatal(err)
			}
			mbA := NewMailbox(epA)
			defer mbA.Close() //nolint:errcheck
			epB, err := net.Endpoint("B")
			if err != nil {
				t.Fatal(err)
			}
			mbB := NewMailbox(epB)
			defer mbB.Close() //nolint:errcheck
			for _, tc := range bodies {
				if err := mbA.SendBody(ctx, "B", "t", tc.name, tc.body); err != nil {
					t.Fatalf("%s: %v", tc.name, err)
				}
				got, err := mbB.Expect(ctx, "t", tc.name)
				if err != nil {
					t.Fatalf("%s: %v", tc.name, err)
				}
				if got.From != "A" {
					t.Fatalf("%s: from %q, want A", tc.name, got.From)
				}
				own, other := tc.own(), tc.other()
				if err := Unmarshal(got.Payload, own); err != nil {
					t.Fatalf("%s: %v", tc.name, err)
				}
				if !reflect.DeepEqual(own, tc.body) {
					t.Fatalf("%s: decoded %+v, sent %+v", tc.name, own, tc.body)
				}
				if err := Unmarshal(got.Payload, other); err == nil {
					t.Fatalf("%s: decoded into %T, a target of the other codec", tc.name, other)
				}
			}
		})
	}
}
