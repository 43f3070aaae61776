package transport

import (
	"encoding/binary"
	"fmt"
	"sync"
)

// Binary envelope codec.
//
// Every TCP frame is a 4-byte length prefix followed by the envelope:
//
//	binMagic ‖ frameVersion ‖ { uvarint(len) ‖ field }* ‖ uvarint(len) ‖ payload
//
// with the string fields From, To, Type, Session, ReplyAddr,
// TraceSession and TraceSpan in that order, and the payload carried
// raw. There is one layout and one version: a frame with any other
// magic or version is refused and the connection dropped.
const (
	binMagic = 0xD1
	// frameVersion is the only envelope layout. Versions 1 and 2 carried
	// a codec advertisement this layout no longer has.
	frameVersion = 3
)

// encBufPool recycles encode buffers across frames.
var encBufPool = sync.Pool{New: func() any { return new([]byte) }}

// envelopeFields returns the ordered envelope string fields.
func envelopeFields(msg *Message) [7]*string {
	return [7]*string{&msg.From, &msg.To, &msg.Type, &msg.Session, &msg.ReplyAddr, &msg.TraceSession, &msg.TraceSpan}
}

// appendBinaryMessage appends the binary encoding of msg to dst.
//
// A message still carrying a deferred binary body (payload.go) has it
// encoded DIRECTLY into dst — the zero-copy path: the exact payload
// length is known up front from BinarySize, so the length prefix is
// written first and the packed blocks land straight in the pooled frame
// buffer.
func appendBinaryMessage(dst []byte, msg *Message) []byte {
	dst = append(dst, binMagic, frameVersion)
	for _, f := range envelopeFields(msg) {
		dst = binary.AppendUvarint(dst, uint64(len(*f)))
		dst = append(dst, *f...)
	}
	if body, ok := msg.pendingBody(); ok {
		dst = binary.AppendUvarint(dst, uint64(payloadHdrLen+body.BinarySize()))
		return appendBinaryPayload(dst, body)
	}
	dst = binary.AppendUvarint(dst, uint64(len(msg.Payload)))
	dst = append(dst, msg.Payload...)
	return dst
}

// decodeBinaryMessage parses a binary frame body.
func decodeBinaryMessage(body []byte) (Message, error) {
	if len(body) < 2 || body[0] != binMagic {
		return Message{}, fmt.Errorf("transport: not a binary frame")
	}
	if body[1] != frameVersion {
		return Message{}, fmt.Errorf("transport: unsupported binary frame version %d", body[1])
	}
	rest := body[2:]
	next := func() ([]byte, error) {
		n, sz := binary.Uvarint(rest)
		if sz <= 0 || n > uint64(len(rest)-sz) {
			return nil, fmt.Errorf("transport: truncated binary frame")
		}
		f := rest[sz : sz+int(n)]
		rest = rest[sz+int(n):]
		return f, nil
	}
	var msg Message
	for _, dst := range envelopeFields(&msg) {
		f, err := next()
		if err != nil {
			return Message{}, err
		}
		*dst = string(f)
	}
	payload, err := next()
	if err != nil {
		return Message{}, err
	}
	if len(payload) > 0 {
		msg.Payload = append([]byte(nil), payload...)
	}
	if len(rest) != 0 {
		return Message{}, fmt.Errorf("transport: %d trailing bytes after binary frame", len(rest))
	}
	return msg, nil
}
