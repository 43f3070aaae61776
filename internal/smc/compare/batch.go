package compare

import (
	"context"
	"fmt"
	"math/big"

	"confaudit/internal/smc"
	"confaudit/internal/transport"
	"confaudit/internal/workpool"
)

// Batch comparison: two holders each hold a value per shared key (in
// the DLA system, one attribute value per glsn), and need the ordering
// of the two values for every key without revealing the values. Both
// holders apply the same jointly-derived strictly monotone transform
// W = a·x + b and submit the transformed vectors to a blind TTP, which
// returns only the per-key comparison signs. This is the §3.3 machinery
// applied per audit record, and is what evaluates cross-node auditing
// predicates like salary_P1 > price_P2.

// Message types on the wire.
const (
	msgSubmitBatch  = "compare.batch.submit"
	msgVerdictBatch = "compare.batch.verdict"
)

// BatchConfig describes one batch-comparison run.
type BatchConfig struct {
	// Holders are the two nodes with per-key private values; the
	// comparison sign is holder[0] vs holder[1].
	Holders [2]string
	// TTP is the blind comparison node, distinct from both holders.
	TTP string
	// MaxAbs bounds |value| for every submitted value.
	MaxAbs *big.Int
	// Session disambiguates concurrent runs.
	Session string
}

func (c *BatchConfig) validate() error {
	if err := validateBatch(c.Holders, c.TTP, c.Session); err != nil {
		return err
	}
	if c.MaxAbs == nil || c.MaxAbs.Sign() <= 0 {
		return fmt.Errorf("%w: missing value bound", smc.ErrProtocol)
	}
	return nil
}

type batchSubmitBody struct {
	Keys []string `json:"keys"`
	Ws   []string `json:"ws"`
}

type batchVerdictBody struct {
	// Signs[i] is -1, 0, or +1: holder0's value vs holder1's for Keys[i].
	Keys  []string `json:"keys"`
	Signs []int    `json:"signs"`
}

// BatchCompare executes a holder's role: keys and values are parallel
// slices (keys must be identical, in identical order, on both holders —
// the audit layer aligns them beforehand). Returns sign(holder0[k] -
// holder1[k]) for every key.
func BatchCompare(ctx context.Context, mb *transport.Mailbox, cfg BatchConfig, keys []string, values []*big.Int) (map[string]int, error) {
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
	a, b, err := jointSecret(ctx, mb, bound, []string{peer}, cfg.Session)
	if err != nil {
		return nil, err
	}
	ws := make([]string, len(values))
	if err := workpool.Map(len(values), func(i int) error {
		w := new(big.Int).Mul(a, values[i])
		w.Add(w, b)
		ws[i] = smc.EncodeBig(w)
		return nil
	}); err != nil {
		return nil, err
	}
	if err := mb.SendBody(ctx, cfg.TTP, msgSubmitBatch, cfg.Session, batchSubmitBody{Keys: keys, Ws: ws}); err != nil {
		return nil, err
	}
	msg, err := mb.Expect(ctx, msgVerdictBatch, cfg.Session)
	if err != nil {
		return nil, fmt.Errorf("compare: awaiting batch verdict: %w", err)
	}
	var verdict batchVerdictBody
	if err := transport.Unmarshal(msg.Payload, &verdict); err != nil {
		return nil, err
	}
	if len(verdict.Keys) != len(verdict.Signs) {
		return nil, fmt.Errorf("%w: malformed verdict", smc.ErrProtocol)
	}
	out := make(map[string]int, len(verdict.Keys))
	for i, k := range verdict.Keys {
		out[k] = verdict.Signs[i]
	}
	return out, nil
}

// ServeBatchCompare executes the TTP role for one batch run.
func ServeBatchCompare(ctx context.Context, mb *transport.Mailbox, cfg BatchConfig) error {
	if err := cfg.validate(); err != nil {
		return err
	}
	subs := make(map[string]batchSubmitBody, 2)
	for len(subs) < 2 {
		msg, err := mb.Expect(ctx, msgSubmitBatch, cfg.Session)
		if err != nil {
			return fmt.Errorf("compare: awaiting batch submissions: %w", err)
		}
		if msg.From != cfg.Holders[0] && msg.From != cfg.Holders[1] {
			return fmt.Errorf("%w: submission from non-holder %q", smc.ErrProtocol, msg.From)
		}
		var body batchSubmitBody
		if err := transport.Unmarshal(msg.Payload, &body); err != nil {
			return err
		}
		subs[msg.From] = body
	}
	s0, s1 := subs[cfg.Holders[0]], subs[cfg.Holders[1]]
	if len(s0.Keys) != len(s1.Keys) {
		return fmt.Errorf("%w: holders submitted %d and %d keys", smc.ErrProtocol, len(s0.Keys), len(s1.Keys))
	}
	if len(s0.Ws) != len(s0.Keys) || len(s1.Ws) != len(s1.Keys) {
		return fmt.Errorf("%w: submission width mismatch", smc.ErrProtocol)
	}
	verdict := batchVerdictBody{Keys: s0.Keys, Signs: make([]int, len(s0.Keys))}
	if err := workpool.Map(len(s0.Keys), func(i int) error {
		if s0.Keys[i] != s1.Keys[i] {
			return fmt.Errorf("%w: key order mismatch at %d", smc.ErrProtocol, i)
		}
		w0, err := smc.DecodeBig(s0.Ws[i])
		if err != nil {
			return err
		}
		w1, err := smc.DecodeBig(s1.Ws[i])
		if err != nil {
			return err
		}
		verdict.Signs[i] = w0.Cmp(w1)
		return nil
	}); err != nil {
		return err
	}
	for _, h := range cfg.Holders {
		if err := mb.SendBody(ctx, h, msgVerdictBatch, cfg.Session, verdict); err != nil {
			return err
		}
	}
	return nil
}
