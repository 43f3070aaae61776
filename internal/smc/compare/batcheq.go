package compare

import (
	"context"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/big"

	"confaudit/internal/smc"
	"confaudit/internal/transport"
)

// Batch equality: §3.2's =s applied per shared key. Two holders each
// hold a value per key (in the DLA system, one attribute value per
// glsn) and need, for every key, whether the two values are equal. The
// holders derive a joint secret the TTP never sees and submit one keyed
// tag per key, HMAC-SHA256 over the key and the value, which is the
// paper's randomized mapping made one-time per key. The blind TTP
// compares the tags key by key and sends the verdicts to Holders[0]
// only. It learns one equality bit per key: no order, no gap, and,
// because each tag covers its key, no equality across keys. The other
// holder learns nothing.

// Message types on the wire.
const (
	msgSubmitBatchEq  = "compare.batcheq.submit"
	msgVerdictBatchEq = "compare.batcheq.verdict"
)

// TagSize is the width of one submitted tag, in bytes.
const TagSize = sha256.Size

// eqSecretBound bounds each holder's contribution to the joint tag key.
var eqSecretBound = new(big.Int).Lsh(big.NewInt(1), 256)

// BatchEqualConfig describes one batch-equality run.
type BatchEqualConfig struct {
	// Holders are the two nodes with per-key private values. Only
	// Holders[0] receives the verdicts.
	Holders [2]string
	// TTP is the blind comparison node, distinct from both holders.
	TTP string
	// Session disambiguates concurrent runs.
	Session string
}

func (c *BatchEqualConfig) validate() error {
	return validateBatch(c.Holders, c.TTP, c.Session)
}

// validateBatch checks the parties and session every batch run shares.
func validateBatch(holders [2]string, ttp, session string) error {
	if holders[0] == "" || holders[1] == "" || holders[0] == holders[1] {
		return fmt.Errorf("%w: need two distinct holders", smc.ErrProtocol)
	}
	if ttp == "" || ttp == holders[0] || ttp == holders[1] {
		return fmt.Errorf("%w: TTP must be a third party", smc.ErrProtocol)
	}
	if session == "" {
		return fmt.Errorf("%w: empty session", smc.ErrProtocol)
	}
	return nil
}

type batchEqSubmitBody struct {
	Keys []string `json:"keys"`
	Tags [][]byte `json:"tags"`
}

type batchEqVerdictBody struct {
	// Equal[i] reports whether the holders' tags for Keys[i] match.
	Equal []bool `json:"equal"`
}

// BatchEqual executes a holder's role: keys and values are parallel
// slices, with keys identical and in identical order on both holders
// (the audit layer aligns them beforehand). A value is the holder's
// canonical bytes for it: two values are judged equal iff their bytes
// are. Holders[0] gets back, for every key, whether the two values are
// equal; Holders[1] returns nil once its tags are submitted.
func BatchEqual(ctx context.Context, mb *transport.Mailbox, cfg BatchEqualConfig, keys []string, values [][]byte) ([]bool, error) {
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
	// a is the tag key; b, the transform's offset elsewhere, goes unused.
	a, _, err := jointSecret(ctx, mb, eqSecretBound, []string{peer}, cfg.Session)
	if err != nil {
		return nil, err
	}
	body := batchEqSubmitBody{Keys: keys, Tags: equalityTags(a.Bytes(), keys, values)}
	if err := mb.SendBody(ctx, cfg.TTP, msgSubmitBatchEq, cfg.Session, body); err != nil {
		return nil, err
	}
	if self != cfg.Holders[0] {
		return nil, nil
	}
	msg, err := mb.ExpectFrom(ctx, cfg.TTP, msgVerdictBatchEq, cfg.Session)
	if err != nil {
		return nil, fmt.Errorf("compare: awaiting equality verdict: %w", err)
	}
	var verdict batchEqVerdictBody
	if err := transport.Unmarshal(msg.Payload, &verdict); err != nil {
		return nil, err
	}
	if len(verdict.Equal) != len(keys) {
		return nil, fmt.Errorf("%w: %d verdicts for %d keys", smc.ErrProtocol, len(verdict.Equal), len(keys))
	}
	return verdict.Equal, nil
}

// equalityTags is one HMAC-SHA256 tag under key per (keys[i],
// values[i]), over the key's length, the key and the value.
func equalityTags(key []byte, keys []string, values [][]byte) [][]byte {
	mac := hmac.New(sha256.New, key)
	buf := make([]byte, 0, 64)
	tags := make([][]byte, len(keys))
	slab := make([]byte, 0, len(keys)*TagSize)
	for i, k := range keys {
		buf = binary.AppendUvarint(buf[:0], uint64(len(k)))
		buf = append(buf, k...)
		buf = append(buf, values[i]...)
		mac.Reset()
		mac.Write(buf) //nolint:errcheck // hash writes never fail
		slab = mac.Sum(slab)
		tags[i] = slab[len(slab)-TagSize:]
	}
	return tags
}

// ServeBatchEqual executes the TTP role for one batch-equality run: it
// takes one submission from each holder, checks that both cover the
// same keys in the same order with tags of the right width, and sends
// the per-key verdicts to Holders[0] only.
func ServeBatchEqual(ctx context.Context, mb *transport.Mailbox, cfg BatchEqualConfig) error {
	if err := cfg.validate(); err != nil {
		return err
	}
	subs := make(map[string]batchEqSubmitBody, 2)
	for len(subs) < 2 {
		msg, err := mb.Expect(ctx, msgSubmitBatchEq, cfg.Session)
		if err != nil {
			return fmt.Errorf("compare: awaiting equality submissions: %w", err)
		}
		if msg.From != cfg.Holders[0] && msg.From != cfg.Holders[1] {
			return fmt.Errorf("%w: submission from non-holder %q", smc.ErrProtocol, msg.From)
		}
		var body batchEqSubmitBody
		if err := transport.Unmarshal(msg.Payload, &body); err != nil {
			return err
		}
		if len(body.Tags) != len(body.Keys) {
			return fmt.Errorf("%w: %s submitted %d tags for %d keys", smc.ErrProtocol, msg.From, len(body.Tags), len(body.Keys))
		}
		for i, tag := range body.Tags {
			if len(tag) != TagSize {
				return fmt.Errorf("%w: %s submitted a %d-byte tag at %d", smc.ErrProtocol, msg.From, len(tag), i)
			}
		}
		subs[msg.From] = body
	}
	s0, s1 := subs[cfg.Holders[0]], subs[cfg.Holders[1]]
	if len(s0.Keys) != len(s1.Keys) {
		return fmt.Errorf("%w: holders submitted %d and %d keys", smc.ErrProtocol, len(s0.Keys), len(s1.Keys))
	}
	verdict := batchEqVerdictBody{Equal: make([]bool, len(s0.Keys))}
	for i, k := range s0.Keys {
		if k != s1.Keys[i] {
			return fmt.Errorf("%w: key order mismatch at %d", smc.ErrProtocol, i)
		}
		verdict.Equal[i] = hmac.Equal(s0.Tags[i], s1.Tags[i])
	}
	return mb.SendBody(ctx, cfg.Holders[0], msgVerdictBatchEq, cfg.Session, verdict)
}
