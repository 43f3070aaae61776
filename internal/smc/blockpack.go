package smc

import (
	"fmt"

	"confaudit/internal/telemetry"
)

// Packed ciphertext-block encoding for relay bodies.
//
// A relayed set is a slice of fixed-width group elements: every
// commutative block is FillBytes-fixed at the cipher's BlockSize. The
// blocks travel as one contiguous byte string plus the common width,
// which costs one field and one allocation on each end regardless of
// the set size. Only block COUNT and WIDTH are visible in the encoding
// — the secondary information Definition 1 already concedes.

// PackBlocks concatenates fixed-width blocks into one byte string.
// Blocks of differing or zero width are a protocol error: no cipher in
// this module produces them.
func PackBlocks(blocks [][]byte) (packed []byte, blockLen int, err error) {
	if len(blocks) == 0 {
		return nil, 0, nil
	}
	blockLen = len(blocks[0])
	if blockLen == 0 {
		return nil, 0, fmt.Errorf("%w: zero-width block", ErrProtocol)
	}
	for _, b := range blocks {
		if len(b) != blockLen {
			return nil, 0, fmt.Errorf("%w: block of %d bytes in a batch of width %d", ErrProtocol, len(b), blockLen)
		}
	}
	packed = make([]byte, 0, blockLen*len(blocks))
	for _, b := range blocks {
		packed = append(packed, b...)
	}
	telemetry.M.Counter(telemetry.CtrCodecBytesSent).Add(int64(len(packed)))
	return packed, blockLen, nil
}

// UnpackBlocks splits a packed byte string back into blocks.
func UnpackBlocks(packed []byte, blockLen int) ([][]byte, error) {
	if len(packed) == 0 {
		return nil, nil
	}
	if blockLen <= 0 || len(packed)%blockLen != 0 {
		return nil, fmt.Errorf("%w: packed run of %d bytes is not a multiple of block width %d", ErrProtocol, len(packed), blockLen)
	}
	n := len(packed) / blockLen
	out := make([][]byte, n)
	for i := 0; i < n; i++ {
		out[i] = packed[i*blockLen : (i+1)*blockLen : (i+1)*blockLen]
	}
	return out, nil
}
