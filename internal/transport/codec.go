package transport

import (
	"fmt"
	"sync"

	"confaudit/internal/wire"
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
func appendBinaryMessage(dst []byte, msg *Message) []byte {
	dst = append(dst, binMagic, frameVersion)
	for _, f := range envelopeFields(msg) {
		dst = wire.AppendRun(dst, *f)
	}
	return wire.AppendRun(dst, msg.Payload)
}

// decodeBinaryMessage parses a binary frame body. Like every wire
// decoder it is canonical: it accepts only the bytes
// appendBinaryMessage writes.
func decodeBinaryMessage(body []byte) (Message, error) {
	if len(body) < 2 || body[0] != binMagic {
		return Message{}, fmt.Errorf("transport: not a binary frame")
	}
	if body[1] != frameVersion {
		return Message{}, fmt.Errorf("transport: unsupported binary frame version %d", body[1])
	}
	d := wire.NewDec(body[2:])
	var msg Message
	var err error
	for _, f := range envelopeFields(&msg) {
		if *f, err = d.Str(); err != nil {
			return Message{}, fmt.Errorf("transport: decoding binary frame: %w", err)
		}
	}
	payload, err := d.Run()
	if err == nil {
		err = d.Done()
	}
	if err != nil {
		return Message{}, fmt.Errorf("transport: decoding binary frame: %w", err)
	}
	if len(payload) > 0 {
		msg.Payload = append([]byte(nil), payload...)
	}
	return msg, nil
}
