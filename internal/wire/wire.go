// Package wire is the one binary codec under every encoding the system
// writes: the cluster's protocol bodies and journal entries, the SMC
// relay body, the TCP envelope and the segment store's record frames.
// Each of those is a sequence of the primitives below, so each body has
// one encoder (the Append* helpers) and one decoder (Dec), and nothing
// predicts an encoding's size ahead of writing it.
//
// Layout of the primitives (integers are unsigned varints):
//
//   - a run (string or byte slice): len ‖ bytes.
//   - an optional byte run, where nil and empty differ: 0 for nil,
//     else len+1 ‖ bytes.
//   - an optional count, where a nil list and an empty one differ: 0
//     for nil, else count+1.
//   - a big integer: tag 0 for nil, 1 for zero or positive, 2 for
//     negative; then len ‖ big-endian magnitude bytes.
//   - a strictly ascending list of non-negative integers: count ‖
//     first element ‖ each later element's gap to the one before it.
//
// Decoding is canonical: an overlong varint, a big integer with a
// leading zero byte, a negative zero and trailing bytes are refused, so
// every accepted encoding is the one the encoder writes. Every refusal
// wraps ErrMalformed.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/big"
	"sync"
)

// ErrMalformed reports a truncated, non-canonical or hostile encoding.
var ErrMalformed = errors.New("wire: malformed encoding")

// --- encoder ---

// AppendRun appends a length-prefixed string or byte run.
func AppendRun[T string | []byte](dst []byte, run T) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(run)))
	return append(dst, run...)
}

// AppendOptBytes appends a byte run that keeps nil and empty apart.
func AppendOptBytes(dst, b []byte) []byte {
	if b == nil {
		return append(dst, 0)
	}
	dst = binary.AppendUvarint(dst, uint64(len(b))+1)
	return append(dst, b...)
}

// AppendOptCount appends the count of a list that keeps nil and empty
// apart.
func AppendOptCount(dst []byte, n int, present bool) []byte {
	if !present {
		return append(dst, 0)
	}
	return binary.AppendUvarint(dst, uint64(n)+1)
}

// AppendBig appends a signed big integer, or nil.
func AppendBig(dst []byte, v *big.Int) []byte {
	if v == nil {
		return append(dst, 0)
	}
	tag := byte(1)
	if v.Sign() < 0 {
		tag = 2
	}
	dst = append(dst, tag)
	n := (v.BitLen() + 7) / 8
	dst = binary.AppendUvarint(dst, uint64(n))
	dst = append(dst, make([]byte, n)...)
	v.FillBytes(dst[len(dst)-n:])
	return dst
}

// AppendAscending appends a strictly ascending list of non-negative
// integers as its count, its first element and then each element's gap
// to the one before it, so a list of nearby values costs a byte or two
// per element.
func AppendAscending[T ~int | ~uint64](dst []byte, xs []T) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(xs)))
	var prev uint64
	for _, x := range xs {
		dst = binary.AppendUvarint(dst, uint64(x)-prev)
		prev = uint64(x)
	}
	return dst
}

// AppendPrefixed appends what fn appends, preceded by its length as a
// varint: the same bytes as AppendRun over fn's output, written without
// knowing that length first. fn appends to its argument and returns the
// extended slice.
func AppendPrefixed(dst []byte, fn func([]byte) []byte) []byte {
	start := len(dst)
	dst = fn(dst)
	n := len(dst) - start
	var hdr [binary.MaxVarintLen64]byte
	h := binary.PutUvarint(hdr[:], uint64(n))
	dst = append(dst, hdr[:h]...)
	copy(dst[start+h:], dst[start:start+n])
	copy(dst[start:], hdr[:h])
	return dst
}

// scratch recycles Encode's work buffers.
var scratch = sync.Pool{New: func() any { return new([]byte) }}

// Encode returns what fn appends to an empty slice, in a slice of
// exactly that length that nothing else holds. fn writes into a pooled
// buffer, so an encoding of any size costs one allocation.
func Encode(fn func([]byte) []byte) []byte {
	bp := scratch.Get().(*[]byte)
	b := fn((*bp)[:0])
	out := make([]byte, len(b))
	copy(out, b)
	*bp = b[:0]
	scratch.Put(bp)
	return out
}

// --- decoder ---

// Dec is a bounds-checked cursor over one encoding. Run, Take, OptRun,
// BigRun and Rest hand out slices of the source; every other accessor
// copies what it returns, so a caller decoding from a recycled buffer
// keeps nothing of it unless it asks for a slice.
type Dec struct{ rest []byte }

// NewDec starts a cursor at the front of src.
func NewDec(src []byte) Dec { return Dec{rest: src} }

// Num decodes a varint, refusing an overlong one: a minimal encoding
// never ends in a zero byte after its first.
func (d *Dec) Num() (uint64, error) {
	if len(d.rest) > 0 && d.rest[0] < 0x80 { // one byte: most lengths and tags
		v := d.rest[0]
		d.rest = d.rest[1:]
		return uint64(v), nil
	}
	v, sz := binary.Uvarint(d.rest)
	if sz <= 0 {
		return 0, fmt.Errorf("%w: truncated or oversized varint", ErrMalformed)
	}
	if sz > 1 && d.rest[sz-1] == 0 {
		return 0, fmt.Errorf("%w: overlong varint", ErrMalformed)
	}
	d.rest = d.rest[sz:]
	return v, nil
}

// Small decodes a varint count, length or field that fits an int32:
// everything framed here is bounded by the frame it arrived in, so
// anything larger is a hostile encoding.
func (d *Dec) Small() (int, error) {
	v, err := d.Num()
	if err != nil {
		return 0, err
	}
	// math.MaxInt32, not 1<<31: admitting exactly 2^31 would wrap the
	// int conversion negative on 32-bit platforms and reach a slice
	// expression with a negative index.
	if v > math.MaxInt32 {
		return 0, fmt.Errorf("%w: field %d out of range", ErrMalformed, v)
	}
	return int(v), nil
}

// Take returns the next n bytes, as a slice of the source.
func (d *Dec) Take(n int) ([]byte, error) {
	if n > len(d.rest) {
		return nil, fmt.Errorf("%w: run of %d bytes exceeds remaining %d", ErrMalformed, n, len(d.rest))
	}
	b := d.rest[:n]
	d.rest = d.rest[n:]
	return b, nil
}

// Run decodes a length-prefixed run, as a slice of the source.
func (d *Dec) Run() ([]byte, error) {
	n, err := d.Small()
	if err != nil {
		return nil, err
	}
	return d.Take(n)
}

// Str decodes a length-prefixed run as a string.
func (d *Dec) Str() (string, error) {
	b, err := d.Run()
	return string(b), err
}

// OptRun decodes an optional byte run as a slice of the source: nil
// when absent, an empty, non-nil slice for an empty present run.
func (d *Dec) OptRun() ([]byte, error) {
	n, err := d.Small()
	if err != nil || n == 0 {
		return nil, err
	}
	return d.Take(n - 1)
}

// OptBytes decodes an optional byte run into a fresh slice; an empty
// present run decodes to an empty, non-nil slice.
func (d *Dec) OptBytes() ([]byte, error) {
	b, err := d.OptRun()
	if b == nil || err != nil {
		return nil, err
	}
	return append(make([]byte, 0, len(b)), b...), nil
}

// OptCount decodes an optional list count. Every element costs at
// least one byte, so a count past the bytes left is refused before the
// caller allocates for it.
func (d *Dec) OptCount() (n int, present bool, err error) {
	flag, err := d.Small()
	if err != nil || flag == 0 {
		return 0, false, err
	}
	if n = flag - 1; n > len(d.rest) {
		return 0, false, fmt.Errorf("%w: %d elements claimed in %d bytes", ErrMalformed, n, len(d.rest))
	}
	return n, true, nil
}

// Count decodes a list count. Every element costs at least one byte,
// so a count past the bytes left is refused before the caller
// allocates for it.
func (d *Dec) Count() (int, error) {
	n, err := d.Small()
	if err != nil {
		return 0, err
	}
	if n > len(d.rest) {
		return 0, fmt.Errorf("%w: %d elements claimed in %d bytes", ErrMalformed, n, len(d.rest))
	}
	return n, nil
}

// Ascending decodes a list AppendAscending wrote, refusing an element
// above max and a list that is not strictly ascending: a zero gap after
// the first element, or a gap that wraps past 2^64.
func Ascending[T ~int | ~uint64](d *Dec, max uint64) ([]T, error) {
	n, err := d.Count()
	if err != nil {
		return nil, err
	}
	out := make([]T, n)
	var prev uint64
	for i := range out {
		gap, err := d.Num()
		if err != nil {
			return nil, err
		}
		x := prev + gap
		if i > 0 && (gap == 0 || x < prev) {
			return nil, fmt.Errorf("%w: list not strictly ascending at %d", ErrMalformed, i)
		}
		if x > max {
			return nil, fmt.Errorf("%w: element %d above %d", ErrMalformed, x, max)
		}
		out[i], prev = T(x), x
	}
	return out, nil
}

// Big decodes a signed big integer, or nil.
func (d *Dec) Big() (*big.Int, error) {
	tag, mag, err := d.bigParts()
	if err != nil || tag == 0 {
		return nil, err
	}
	v := new(big.Int).SetBytes(mag)
	if tag == 2 {
		v.Neg(v)
	}
	return v, nil
}

// BigRun checks a big integer as Big does, without decoding it, and
// returns its whole encoding (tag, length and magnitude) as a slice of
// the source, for a later NewDec(run).Big().
func (d *Dec) BigRun() ([]byte, error) {
	start := d.rest
	if _, _, err := d.bigParts(); err != nil {
		return nil, err
	}
	return start[:len(start)-len(d.rest)], nil
}

// bigParts decodes a big integer's sign tag and its magnitude, as a
// slice of the source, refusing every non-canonical form.
func (d *Dec) bigParts() (tag byte, mag []byte, err error) {
	t, err := d.Take(1)
	if err != nil {
		return 0, nil, err
	}
	switch t[0] {
	case 0:
		return 0, nil, nil
	case 1, 2:
	default:
		return 0, nil, fmt.Errorf("%w: big-int tag %d", ErrMalformed, t[0])
	}
	if mag, err = d.Run(); err != nil {
		return 0, nil, err
	}
	if len(mag) > 0 && mag[0] == 0 {
		return 0, nil, fmt.Errorf("%w: big integer with a leading zero byte", ErrMalformed)
	}
	if len(mag) == 0 && t[0] == 2 {
		return 0, nil, fmt.Errorf("%w: negative zero", ErrMalformed)
	}
	return t[0], mag, nil
}

// Rest returns the bytes not yet decoded, as a slice of the source.
func (d *Dec) Rest() []byte { return d.rest }

// Done refuses trailing bytes after a complete encoding.
func (d *Dec) Done() error {
	if len(d.rest) != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrMalformed, len(d.rest))
	}
	return nil
}
