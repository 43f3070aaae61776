package smc

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
)

// The relay body shared by the ring protocols.
//
// Every relay-style body in the SMC protocols (intersect/union relay
// chunks, final-set publications, union collect/decrypt/result batches)
// is the same shape: an origin, small integer framing (hops, chunk
// seq/total, block width), and one packed block run. RelayWire is that
// body, and implements transport.BinaryBody.
//
// Layout (all integers uvarint):
//
//	len(Origin) ‖ Origin ‖ Hops ‖ Seq ‖ Total ‖ BlockLen ‖ len(Packed) ‖ Packed
//
// The packed run rides the wire raw: no per-element framing, and on the
// TCP path it is appended straight into the envelope codec's pooled
// frame buffer (BinarySize is exact, so the frame length prefix can be
// written first). Only sizes and counts are visible in the framing, the
// secondary information Definition 1 permits.

// RelayWire is one relayed block batch: chunk Seq of Total of Origin's
// set, after Hops encryption layers. Bodies that are not part of a
// chunked stream (final sets, union batches) are chunk 0 of 1.
type RelayWire struct {
	Origin   string
	Hops     int
	Seq      int
	Total    int
	BlockLen int
	Packed   []byte
}

// NewRelayWire packs blocks as chunk seq of total.
func NewRelayWire(origin string, hops int, blocks [][]byte, seq, total int) (RelayWire, error) {
	packed, width, err := PackBlocks(blocks)
	if err != nil {
		return RelayWire{}, err
	}
	return RelayWire{Origin: origin, Hops: hops, Seq: seq, Total: total, BlockLen: width, Packed: packed}, nil
}

// Unpack returns the batch's blocks, subsliced from Packed.
func (w *RelayWire) Unpack() ([][]byte, error) {
	return UnpackBlocks(w.Packed, w.BlockLen)
}

// uvarintLen is the encoded size of v.
func uvarintLen(v uint64) int {
	return (bits.Len64(v|1) + 6) / 7
}

// BinarySize returns the exact encoded size in bytes.
func (w *RelayWire) BinarySize() int {
	n := uvarintLen(uint64(len(w.Origin))) + len(w.Origin)
	n += uvarintLen(uint64(w.Hops))
	n += uvarintLen(uint64(w.Seq))
	n += uvarintLen(uint64(w.Total))
	n += uvarintLen(uint64(w.BlockLen))
	n += uvarintLen(uint64(len(w.Packed))) + len(w.Packed)
	return n
}

// AppendBinary appends the encoding to dst and returns the extended
// slice. It appends exactly BinarySize bytes and retains nothing.
func (w *RelayWire) AppendBinary(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(w.Origin)))
	dst = append(dst, w.Origin...)
	dst = binary.AppendUvarint(dst, uint64(w.Hops))
	dst = binary.AppendUvarint(dst, uint64(w.Seq))
	dst = binary.AppendUvarint(dst, uint64(w.Total))
	dst = binary.AppendUvarint(dst, uint64(w.BlockLen))
	dst = binary.AppendUvarint(dst, uint64(len(w.Packed)))
	return append(dst, w.Packed...)
}

// DecodeBinary decodes an encoding produced by AppendBinary into w,
// copying everything it keeps — the source buffer may be recycled by
// the transport after the call. A body that is not at least one chunk,
// or whose packed run does not split into BlockLen-wide blocks, is
// refused.
func (w *RelayWire) DecodeBinary(src []byte) error {
	rest := src
	num := func() (uint64, error) {
		v, sz := binary.Uvarint(rest)
		if sz <= 0 {
			return 0, fmt.Errorf("%w: truncated relay wire body", ErrBadWireValue)
		}
		// One encoding per body: an overlong uvarint would decode to a
		// body that re-encodes to different bytes.
		if sz != uvarintLen(v) {
			return 0, fmt.Errorf("%w: non-minimal uvarint in relay wire body", ErrBadWireValue)
		}
		rest = rest[sz:]
		return v, nil
	}
	run := func() ([]byte, error) {
		n, err := num()
		if err != nil {
			return nil, err
		}
		if n > uint64(len(rest)) {
			return nil, fmt.Errorf("%w: relay wire run of %d bytes exceeds remaining %d", ErrBadWireValue, n, len(rest))
		}
		b := rest[:n]
		rest = rest[n:]
		return b, nil
	}
	small := func() (int, error) {
		v, err := num()
		if err != nil {
			return 0, err
		}
		// Counts and widths are bounded by the frame they arrived in;
		// anything past MaxInt32 is a hostile encoding (and 2^31 would
		// wrap negative in a 32-bit int).
		if v > math.MaxInt32 {
			return 0, fmt.Errorf("%w: relay wire field %d out of range", ErrBadWireValue, v)
		}
		return int(v), nil
	}

	origin, err := run()
	if err != nil {
		return err
	}
	w.Origin = string(origin)
	if w.Hops, err = small(); err != nil {
		return err
	}
	if w.Seq, err = small(); err != nil {
		return err
	}
	if w.Total, err = small(); err != nil {
		return err
	}
	if w.BlockLen, err = small(); err != nil {
		return err
	}
	packed, err := run()
	if err != nil {
		return err
	}
	if len(rest) != 0 {
		return fmt.Errorf("%w: %d trailing bytes after relay wire body", ErrBadWireValue, len(rest))
	}
	if w.Total < 1 {
		return fmt.Errorf("%w: relay wire body of %d chunks", ErrBadWireValue, w.Total)
	}
	if len(packed) > 0 && (w.BlockLen == 0 || len(packed)%w.BlockLen != 0) {
		return fmt.Errorf("%w: packed run of %d bytes is not a multiple of block width %d", ErrBadWireValue, len(packed), w.BlockLen)
	}
	w.Packed = nil
	if len(packed) > 0 {
		w.Packed = append([]byte(nil), packed...)
	}
	return nil
}
