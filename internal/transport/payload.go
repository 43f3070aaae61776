package transport

import (
	"context"
	"encoding/json"
	"fmt"
)

// Binary payload codec.
//
// A protocol body that implements BinaryBody rides the wire in a
// compact binary payload encoding on every transport. On TCP it is
// appended STRAIGHT into the envelope codec's pooled frame buffer, so a
// packed relay block goes from smc.PackBlocks to the socket without an
// intermediate payload allocation or copy; the in-memory network and
// the client outbox materialize it with EncodePayload.
//
// Every body without a BinaryBody travels as a JSON payload. The choice
// is made per message type, never per peer: Mailbox.SendBody picks the
// codec from the body's type, and Unmarshal from the target's type and
// refuses the other one. Binary payloads open with payloadMagic, which
// no JSON value starts with. After SendBody returns the caller may
// freely reuse the buffers backing the body: every encode path copies
// into memory the sender does not retain (the aliasing regression test
// pins this).

// BinaryBody is implemented by protocol bodies with a compact binary
// payload encoding. AppendBinary must append
// exactly BinarySize bytes and must not retain dst; DecodeBinary must
// copy what it keeps, since the source buffer is recycled.
type BinaryBody interface {
	// BinarySize returns the exact encoded size in bytes, excluding the
	// payload codec header.
	BinarySize() int
	// AppendBinary appends the encoding to dst and returns the extended
	// slice.
	AppendBinary(dst []byte) []byte
	// DecodeBinary decodes an encoding produced by AppendBinary.
	DecodeBinary(src []byte) error
}

const (
	// payloadMagic discriminates binary payloads from JSON ones ('{').
	payloadMagic = 0xB7
	// payloadVersion is the binary payload codec version.
	payloadVersion = 1
	// payloadHdrLen is the codec header: magic + version.
	payloadHdrLen = 2
)

// NewBinaryMessage builds a message whose payload encoding is deferred
// to the transport, which appends it straight into its frame buffer.
// The body must not be mutated until Send returns.
func NewBinaryMessage(to, typ, session string, body BinaryBody) Message {
	return Message{To: to, Type: typ, Session: session, body: body}
}

// appendBinaryPayload appends the payload codec header and body
// encoding to dst.
func appendBinaryPayload(dst []byte, body BinaryBody) []byte {
	dst = append(dst, payloadMagic, payloadVersion)
	return body.AppendBinary(dst)
}

// EncodePayload materializes a deferred body into Payload as a binary
// payload (used by the in-process transport and by callers that store
// the bytes, such as the outbox spool). No-op when no body is pending.
func (m *Message) EncodePayload() {
	if m.body == nil {
		return
	}
	buf := make([]byte, 0, payloadHdrLen+m.body.BinarySize())
	m.Payload = appendBinaryPayload(buf, m.body)
	m.body = nil
}

// pendingBody reports whether the message still carries an un-encoded
// body (and its encoded size, for frame sizing).
func (m *Message) pendingBody() (BinaryBody, bool) {
	return m.body, m.body != nil
}

// IsBinaryPayload reports whether a payload uses the binary payload
// codec (as opposed to JSON).
func IsBinaryPayload(payload []byte) bool {
	return len(payload) >= payloadHdrLen && payload[0] == payloadMagic
}

// Unmarshal decodes a message payload into a protocol body. The
// target's type picks the codec: a BinaryBody accepts only a binary
// payload, anything else only JSON.
func Unmarshal(payload []byte, v any) error {
	bb, isBinary := v.(BinaryBody)
	if isBinary != IsBinaryPayload(payload) {
		if isBinary {
			return fmt.Errorf("transport: non-binary payload for %T", v)
		}
		return fmt.Errorf("transport: binary payload for %T, which has no binary decoding", v)
	}
	if isBinary {
		if payload[1] != payloadVersion {
			return fmt.Errorf("transport: unsupported binary payload version %d", payload[1])
		}
		if err := bb.DecodeBinary(payload[payloadHdrLen:]); err != nil {
			return fmt.Errorf("transport: decoding binary payload: %w", err)
		}
		return nil
	}
	if err := json.Unmarshal(payload, v); err != nil {
		return fmt.Errorf("transport: decoding payload: %w", err)
	}
	return nil
}

// SendBody sends body to a peer as one message of type typ in session,
// picking the codec the way Unmarshal does on the receiving side: a
// BinaryBody defers its binary payload encoding to the transport (the
// zero-copy frame path on TCP), and any other body travels as JSON.
func (m *Mailbox) SendBody(ctx context.Context, to, typ, session string, body any) error {
	var msg Message
	if bb, ok := body.(BinaryBody); ok {
		msg = NewBinaryMessage(to, typ, session, bb)
	} else {
		var err error
		if msg, err = NewMessage(to, typ, session, body); err != nil {
			return err
		}
	}
	if err := m.Send(ctx, msg); err != nil {
		return fmt.Errorf("transport: sending %s to %s: %w", typ, to, err)
	}
	return nil
}
