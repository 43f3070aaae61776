package compare

import (
	"bytes"
	"context"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"math/big"

	"confaudit/internal/smc"
	"confaudit/internal/transport"
)

// Batch comparison: two holders each hold a value per shared key (in
// the DLA system, one attribute value per glsn), and need the ordering
// of the two values for every key without revealing the values. Both
// holders apply the same jointly-derived strictly monotone transform
// W = a·x + b and submit the transformed vectors to a blind TTP, which
// returns only the comparison signs by position, to Holders[0] alone. This
// is the §3.3 machinery applied per audit record, and is what
// evaluates cross-node auditing predicates like salary_P1 > price_P2.

// Message types on the wire.
const (
	msgSubmitBatch  = "compare.batch.submit"
	msgVerdictBatch = "compare.batch.verdict"
)

// BatchConfig describes one batch-comparison run.
type BatchConfig struct {
	// Holders are the two nodes with per-key private values; the
	// comparison sign is holder[0] vs holder[1], and only Holders[0]
	// receives it.
	Holders [2]string
	// TTP is the blind comparison node, distinct from both holders.
	TTP string
	// MaxAbs bounds |value| for every submitted value.
	MaxAbs *big.Int
	// Session disambiguates concurrent runs.
	Session string
}

func (c *BatchConfig) validate() error {
	if err := validateBatch(c.Holders[:], c.TTP, c.Session); err != nil {
		return err
	}
	if c.MaxAbs == nil || c.MaxAbs.Sign() <= 0 {
		return fmt.Errorf("%w: missing value bound", smc.ErrProtocol)
	}
	return nil
}

// digestSize is the width of a submission's key-list digest.
const digestSize = sha256.Size

// batchWidth returns the offset that makes every transformed value of
// a run with bound maxAbs positive, and the width in bytes that holds
// every offset value. Each holder's seed contributions lie in
// [1, bound) with bound = maxAbs·2^64, so a and b lie below 2·bound and
// |a·x + b| < 2·bound·(maxAbs+1) = off: a·x + b + off lies in
// (0, 2·off), one bit wider than off.
func batchWidth(maxAbs *big.Int) (off *big.Int, width int) {
	off = new(big.Int).Add(maxAbs, big.NewInt(1))
	off.Mul(off, maxAbs)
	off.Lsh(off, 65)
	return off, (off.BitLen() + 8) / 8
}

// alignDigest is the HMAC-SHA256, under the run's joint key, of a key
// list, each key length-prefixed: two holders' digests are equal iff
// they submit the same keys in the same order, and the TTP, which does
// not know the key, can neither read a key from a digest nor confirm a
// guessed list.
func alignDigest(key []byte, keys []string) (sum [digestSize]byte) {
	mac := hmac.New(sha256.New, key)
	var hdr []byte
	for _, k := range keys {
		hdr = binary.AppendUvarint(hdr[:0], uint64(len(k)))
		mac.Write(hdr)         //nolint:errcheck // hash writes never fail
		io.WriteString(mac, k) //nolint:errcheck // hash writes never fail
	}
	mac.Sum(sum[:0])
	return sum
}

// BatchCompare executes a holder's role: keys and values are parallel
// slices (keys must be identical, in identical order, on both holders —
// the audit layer aligns them beforehand). Holders[0] gets back
// sign(holder0[i] - holder1[i]), -1, 0 or +1, for every position i;
// Holders[1] returns nil once its values are submitted. No key leaves
// the holder: the TTP gets a digest of the list, and refuses a run
// whose two digests differ.
func BatchCompare(ctx context.Context, mb *transport.Mailbox, cfg BatchConfig, keys []string, values []*big.Int) ([]int, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if len(keys) != len(values) {
		return nil, fmt.Errorf("%w: %d keys for %d values", smc.ErrProtocol, len(keys), len(values))
	}
	self := mb.ID()
	var peer string
	switch self {
	case cfg.Holders[0]:
		peer = cfg.Holders[1]
	case cfg.Holders[1]:
		peer = cfg.Holders[0]
	default:
		return nil, fmt.Errorf("%w: %q is not a holder", smc.ErrProtocol, self)
	}
	for i, v := range values {
		if v == nil || new(big.Int).Abs(v).Cmp(cfg.MaxAbs) > 0 {
			return nil, fmt.Errorf("%w: value %d out of [-MaxAbs, MaxAbs]", smc.ErrProtocol, i)
		}
	}
	// Joint strictly monotone transform over the integers.
	bound := new(big.Int).Lsh(cfg.MaxAbs, 64)
	a, b, key, err := jointSecret(ctx, mb, bound, []string{peer}, cfg.Session)
	if err != nil {
		return nil, err
	}
	off, width := batchWidth(cfg.MaxAbs)
	b.Add(b, off)
	n := len(values)
	body := &batchSubmitBody{N: n, Digest: alignDigest(key, keys), Run: make([]byte, n*width)}
	w := new(big.Int)
	for i, v := range values {
		w.Mul(a, v).Add(w, b).FillBytes(body.Run[i*width : (i+1)*width])
	}
	if err := mb.SendBody(ctx, cfg.TTP, msgSubmitBatch, cfg.Session, body); err != nil {
		return nil, err
	}
	if self != cfg.Holders[0] {
		return nil, nil
	}
	msg, err := mb.ExpectFrom(ctx, cfg.TTP, msgVerdictBatch, cfg.Session)
	if err != nil {
		return nil, fmt.Errorf("compare: awaiting batch verdict: %w", err)
	}
	var verdict batchVerdictBody
	if err := transport.Unmarshal(msg.Payload, &verdict); err != nil {
		return nil, err
	}
	if len(verdict.Signs) != n {
		return nil, fmt.Errorf("%w: %d signs for %d values", smc.ErrProtocol, len(verdict.Signs), n)
	}
	signs := make([]int, n)
	for i, s := range verdict.Signs {
		signs[i] = int(s) - 1
	}
	return signs, nil
}

// ServeBatchCompare executes the TTP role for one batch run: it takes
// exactly one submission from each holder, refusing a non-holder, a
// second submission, a value run that is not n values of the run's
// width, unequal counts and unequal key digests, then sends the signs
// by position to Holders[0] only. It compares the offset values as
// fixed-width big-endian bytes, so it decodes no integer.
func ServeBatchCompare(ctx context.Context, mb *transport.Mailbox, cfg BatchConfig) error {
	if err := cfg.validate(); err != nil {
		return err
	}
	_, width := batchWidth(cfg.MaxAbs)
	subs := make(map[string]*batchSubmitBody, 2)
	for len(subs) < 2 {
		msg, err := mb.Expect(ctx, msgSubmitBatch, cfg.Session)
		if err != nil {
			return fmt.Errorf("compare: awaiting batch submissions: %w", err)
		}
		if msg.From != cfg.Holders[0] && msg.From != cfg.Holders[1] {
			return fmt.Errorf("%w: submission from non-holder %q", smc.ErrProtocol, msg.From)
		}
		if _, dup := subs[msg.From]; dup {
			return fmt.Errorf("%w: second submission from %s", smc.ErrProtocol, msg.From)
		}
		body := new(batchSubmitBody)
		if err := transport.Unmarshal(msg.Payload, body); err != nil {
			return err
		}
		if len(body.Run) != body.N*width {
			return fmt.Errorf("%w: %s submitted %d bytes for %d values of %d", smc.ErrProtocol, msg.From, len(body.Run), body.N, width)
		}
		subs[msg.From] = body
	}
	s0, s1 := subs[cfg.Holders[0]], subs[cfg.Holders[1]]
	if s0.N != s1.N {
		return fmt.Errorf("%w: holders submitted %d and %d values", smc.ErrProtocol, s0.N, s1.N)
	}
	if s0.Digest != s1.Digest {
		return fmt.Errorf("%w: key order mismatch", smc.ErrProtocol)
	}
	verdict := &batchVerdictBody{Signs: make([]byte, s0.N)}
	for i := range verdict.Signs {
		lo, hi := i*width, (i+1)*width
		verdict.Signs[i] = byte(bytes.Compare(s0.Run[lo:hi], s1.Run[lo:hi]) + 1)
	}
	return mb.SendBody(ctx, cfg.Holders[0], msgVerdictBatch, cfg.Session, verdict)
}
