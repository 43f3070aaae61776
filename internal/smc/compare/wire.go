package compare

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/big"

	"confaudit/internal/smc"
	"confaudit/internal/wire"
)

// Binary payload encodings of every compare body.
//
// Each body implements transport.BinaryBody as a sequence of
// internal/wire primitives (integers are uvarints, big integers and
// runs as the wire package writes them):
//
//	compare.seed               A ‖ B ‖ K: two big integers, nil in a run
//	                           that needs no transform, then 32 key bytes
//	compare.eq.submit,
//	compare.rank.submit        W: one big integer
//	compare.eq.verdict         one byte, 1 if equal, else 0
//	compare.rank.verdict       n ‖ n ranks by Holders position ‖ the
//	                           positions of the maximum and the minimum
//	compare.batch.submit       n ‖ 32-byte key digest ‖ len ‖ n values,
//	                           each the same width, big-endian
//	compare.batch.verdict      one sign byte per position: 0 less,
//	                           1 equal, 2 greater
//	compare.intersect.submit   members ‖ len ‖ the tags, packed
//	compare.intersect.verdict  ascending positions (wire.AppendAscending)
//
// Decoding is canonical: every body a decoder accepts re-encodes to
// exactly its input. Every refusal wraps both smc.ErrProtocol and
// wire.ErrMalformed.

// keySize is the width of the joint key a run's seeds derive.
const keySize = 32

// decodeBody runs fn over src and refuses trailing bytes.
func decodeBody(name string, src []byte, fn func(*wire.Dec) error) error {
	d := wire.NewDec(src)
	err := fn(&d)
	if err == nil {
		err = d.Done()
	}
	if err != nil {
		return fmt.Errorf("%w: %s body: %w", smc.ErrProtocol, name, err)
	}
	return nil
}

// seedBody is one party's contribution to a run's joint secret.
type seedBody struct {
	A, B *big.Int
	K    [keySize]byte
}

func (b *seedBody) AppendBinary(dst []byte) []byte {
	dst = wire.AppendBig(wire.AppendBig(dst, b.A), b.B)
	return append(dst, b.K[:]...)
}

func (b *seedBody) DecodeBinary(src []byte) error {
	return decodeBody("seed", src, func(d *wire.Dec) (err error) {
		if b.A, err = d.Big(); err != nil {
			return err
		}
		if b.B, err = d.Big(); err != nil {
			return err
		}
		k, err := d.Take(keySize)
		copy(b.K[:], k)
		return err
	})
}

// submitBody is one transformed value, for an equality or a rank run.
type submitBody struct {
	W *big.Int
}

func (b *submitBody) AppendBinary(dst []byte) []byte { return wire.AppendBig(dst, b.W) }

func (b *submitBody) DecodeBinary(src []byte) error {
	return decodeBody("submit", src, func(d *wire.Dec) (err error) {
		if b.W, err = d.Big(); err == nil && b.W == nil {
			err = fmt.Errorf("%w: no value", wire.ErrMalformed)
		}
		return err
	})
}

type eqVerdictBody struct {
	Equal bool
}

func (b *eqVerdictBody) AppendBinary(dst []byte) []byte {
	if b.Equal {
		return append(dst, 1)
	}
	return append(dst, 0)
}

func (b *eqVerdictBody) DecodeBinary(src []byte) error {
	return decodeBody("equality verdict", src, func(d *wire.Dec) error {
		v, err := d.Take(1)
		if err != nil {
			return err
		}
		if v[0] > 1 {
			return fmt.Errorf("%w: verdict byte %d", wire.ErrMalformed, v[0])
		}
		b.Equal = v[0] == 1
		return nil
	})
}

// rankVerdictBody is a RankResult by holder position: Ranks[i] is the
// rank of Holders[i], in [1, n], and Max and Min are positions.
type rankVerdictBody struct {
	Ranks    []int
	Max, Min int
}

func (b *rankVerdictBody) AppendBinary(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b.Ranks)))
	for _, r := range b.Ranks {
		dst = binary.AppendUvarint(dst, uint64(r))
	}
	dst = binary.AppendUvarint(dst, uint64(b.Max))
	return binary.AppendUvarint(dst, uint64(b.Min))
}

func (b *rankVerdictBody) DecodeBinary(src []byte) error {
	return decodeBody("rank verdict", src, func(d *wire.Dec) error {
		n, err := d.Count()
		if err != nil {
			return err
		}
		b.Ranks = make([]int, n)
		for i := range b.Ranks {
			if b.Ranks[i], err = d.Small(); err != nil {
				return err
			}
			if b.Ranks[i] < 1 || b.Ranks[i] > n {
				return fmt.Errorf("%w: rank %d of %d holders", wire.ErrMalformed, b.Ranks[i], n)
			}
		}
		for _, f := range []*int{&b.Max, &b.Min} {
			if *f, err = d.Small(); err != nil {
				return err
			}
			if *f >= n {
				return fmt.Errorf("%w: holder position %d of %d", wire.ErrMalformed, *f, n)
			}
		}
		return nil
	})
}

// batchSubmitBody is one holder's batch-comparison submission: the
// digest of its key list and N transformed values packed in Run, all
// of the width the run's MaxAbs gives.
type batchSubmitBody struct {
	N      int
	Digest [digestSize]byte
	Run    []byte
}

func (b *batchSubmitBody) AppendBinary(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(b.N))
	dst = append(dst, b.Digest[:]...)
	return wire.AppendRun(dst, b.Run)
}

func (b *batchSubmitBody) DecodeBinary(src []byte) error {
	return decodeBody("batch submission", src, func(d *wire.Dec) (err error) {
		if b.N, err = d.Count(); err != nil {
			return err
		}
		digest, err := d.Take(digestSize)
		if err != nil {
			return err
		}
		copy(b.Digest[:], digest)
		run, err := d.Run()
		b.Run = append([]byte(nil), run...)
		return err
	})
}

// batchVerdictBody holds one sign byte per position: the comparison
// sign plus one.
type batchVerdictBody struct {
	Signs []byte
}

func (b *batchVerdictBody) AppendBinary(dst []byte) []byte { return append(dst, b.Signs...) }

func (b *batchVerdictBody) DecodeBinary(src []byte) error {
	return decodeBody("batch verdict", src, func(d *wire.Dec) error {
		signs, _ := d.Take(len(d.Rest()))
		for i, s := range signs {
			if s > 2 {
				return fmt.Errorf("%w: sign byte %d at %d", wire.ErrMalformed, s, i)
			}
		}
		b.Signs = append([]byte(nil), signs...)
		return nil
	})
}

type intersectSubmitBody struct {
	// Members is the member count the submitter runs with; the TTP
	// refuses a submission that disagrees with its own.
	Members int
	// Tags holds the tags, TagSize bytes each, back to back.
	Tags []byte
}

func (b *intersectSubmitBody) AppendBinary(dst []byte) []byte {
	return wire.AppendRun(binary.AppendUvarint(dst, uint64(b.Members)), b.Tags)
}

func (b *intersectSubmitBody) DecodeBinary(src []byte) error {
	return decodeBody("intersection submission", src, func(d *wire.Dec) (err error) {
		if b.Members, err = d.Small(); err != nil {
			return err
		}
		tags, err := d.Run()
		if err != nil {
			return err
		}
		if len(tags)%TagSize != 0 {
			return fmt.Errorf("%w: %d tag bytes are not whole %d-byte tags", wire.ErrMalformed, len(tags), TagSize)
		}
		b.Tags = append([]byte(nil), tags...)
		return nil
	})
}

type intersectVerdictBody struct {
	// Common lists, ascending, the positions in the member's submission
	// whose tags every member submitted.
	Common []int
}

func (b *intersectVerdictBody) AppendBinary(dst []byte) []byte {
	return wire.AppendAscending(dst, b.Common)
}

func (b *intersectVerdictBody) DecodeBinary(src []byte) error {
	return decodeBody("intersection verdict", src, func(d *wire.Dec) (err error) {
		b.Common, err = wire.Ascending[int](d, math.MaxInt32)
		return err
	})
}
