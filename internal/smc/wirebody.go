package smc

import (
	"encoding/binary"
	"fmt"

	"confaudit/internal/wire"
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
// The packed run rides the wire raw, with no per-element framing. The
// fields are internal/wire primitives, so the decoder is canonical:
// every body it accepts re-encodes to exactly its input. Only sizes and
// counts are visible in the framing, the secondary information
// Definition 1 permits.

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

// AppendBinary appends the encoding to dst and returns the extended
// slice. It retains nothing.
func (w *RelayWire) AppendBinary(dst []byte) []byte {
	dst = wire.AppendRun(dst, w.Origin)
	dst = binary.AppendUvarint(dst, uint64(w.Hops))
	dst = binary.AppendUvarint(dst, uint64(w.Seq))
	dst = binary.AppendUvarint(dst, uint64(w.Total))
	dst = binary.AppendUvarint(dst, uint64(w.BlockLen))
	return wire.AppendRun(dst, w.Packed)
}

// DecodeBinary decodes an encoding produced by AppendBinary into w,
// copying everything it keeps — the source buffer may be recycled by
// the transport after the call. A body that is not at least one chunk,
// or whose packed run does not split into BlockLen-wide blocks, is
// refused. Every refusal wraps both ErrBadWireValue and
// wire.ErrMalformed.
func (w *RelayWire) DecodeBinary(src []byte) error {
	if err := w.decode(src); err != nil {
		return fmt.Errorf("%w: relay wire body: %w", ErrBadWireValue, err)
	}
	return nil
}

func (w *RelayWire) decode(src []byte) error {
	d := wire.NewDec(src)
	var err error
	if w.Origin, err = d.Str(); err != nil {
		return err
	}
	for _, f := range []*int{&w.Hops, &w.Seq, &w.Total, &w.BlockLen} {
		if *f, err = d.Small(); err != nil {
			return err
		}
	}
	packed, err := d.Run()
	if err != nil {
		return err
	}
	if err := d.Done(); err != nil {
		return err
	}
	if w.Total < 1 {
		return fmt.Errorf("%w: %d chunks", wire.ErrMalformed, w.Total)
	}
	if len(packed) > 0 && (w.BlockLen == 0 || len(packed)%w.BlockLen != 0) {
		return fmt.Errorf("%w: packed run of %d bytes is not a multiple of block width %d", wire.ErrMalformed, len(packed), w.BlockLen)
	}
	w.Packed = nil
	if len(packed) > 0 {
		w.Packed = append([]byte(nil), packed...)
	}
	return nil
}
