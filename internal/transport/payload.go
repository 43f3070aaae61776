package transport

import (
	"context"
	"encoding/json"
	"fmt"

	"confaudit/internal/wire"
)

// Binary payload codec.
//
// A protocol body that implements BinaryBody rides the wire in a
// compact binary payload encoding on every transport; every other body
// travels as a JSON payload. NewMessage encodes the body once, when
// the message is built, so a message carries its bytes from then on:
// the TCP frame, the in-memory network and the client outbox spool all
// see the same Payload.
//
// The choice is made per message type, never per peer: NewMessage
// picks the codec from the body's type, and Unmarshal from the
// target's type and refuses the other one. Binary payloads open with
// payloadMagic, which no JSON value starts with. The payload is a
// fresh slice nothing else holds, so after NewMessage returns the
// caller may freely reuse the buffers backing the body (the aliasing
// regression test pins this).

// BinaryBody is implemented by protocol bodies with a compact binary
// payload encoding. AppendBinary must not retain dst; DecodeBinary must
// copy what it keeps, since the source buffer is recycled.
type BinaryBody interface {
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

// NewMessage builds a message carrying body's encoding: the binary
// payload codec for a BinaryBody, JSON for anything else.
func NewMessage(to, typ, session string, body any) (Message, error) {
	var payload []byte
	if bb, ok := body.(BinaryBody); ok {
		payload = wire.Encode(func(dst []byte) []byte {
			return bb.AppendBinary(append(dst, payloadMagic, payloadVersion))
		})
	} else {
		var err error
		if payload, err = Marshal(body); err != nil {
			return Message{}, err
		}
	}
	return Message{To: to, Type: typ, Session: session, Payload: payload}, nil
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
// encoded by NewMessage.
func (m *Mailbox) SendBody(ctx context.Context, to, typ, session string, body any) error {
	msg, err := NewMessage(to, typ, session, body)
	if err != nil {
		return err
	}
	if err := m.Send(ctx, msg); err != nil {
		return fmt.Errorf("transport: sending %s to %s: %w", typ, to, err)
	}
	return nil
}
