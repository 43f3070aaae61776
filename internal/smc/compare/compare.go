// Package compare implements the blind-TTP comparison primitives of
// paper §3.2 and §3.3:
//
//   - Secure equality =s via randomized mapping: the two holders agree
//     on secret random a, b (a ≠ 0 mod p) and submit W = (aY + b) mod p
//     to a TTP, which compares the transformed values "without knowing
//     the real information" and returns only the boolean.
//
//   - Secure Max/Min/Rank: all n holders agree on a secret strictly
//     monotone affine transform W = a·x + b over the integers (a > 0),
//     submit transformed values to a blind TTP, and the TTP returns who
//     holds the maximum/minimum and each party's rank — never the
//     values.
//
//   - Batch comparison over many shared keys at once: BatchCompare
//     returns the order signs, by position, to one holder; the TTP sees
//     no key, only a keyed digest of each holder's key list.
//
//   - Batch intersection among k set holders: Intersect returns its
//     receivers the elements all k sets share, from one keyed tag per
//     element, which the TTP matches across the k submissions. Batch
//     equality is an intersection too: two holders each submit one
//     element per shared key, the key's fixed-width bytes followed by
//     the value's, so the common elements are the keys whose values
//     are equal, and a tag never relates two keys.
//
// In every protocol the joint secrets are derived by contribution from
// every holder (each sends the others a random pair and random key
// bytes), so the TTP cannot know the transform or the key, and no
// single holder chooses them alone — the paper's "provision must be
// made to prevent the TTP from ... colluding with the nodes submitting
// the inquiry".
//
// Leakage (permitted by Definition 1's relaxed model): the TTP learns
// equality patterns, the order of the transformed values, and scaled
// gaps between them (Intersect: each set's size and which tags recur
// across sets); it never sees a plaintext value.
package compare

import (
	"context"
	"crypto/rand"
	"crypto/subtle"
	"fmt"
	"math/big"
	"sort"

	"confaudit/internal/mathx"
	"confaudit/internal/smc"
	"confaudit/internal/transport"
)

// Message types on the wire.
const (
	msgSeed      = "compare.seed"
	msgSubmitEq  = "compare.eq.submit"
	msgVerdictEq = "compare.eq.verdict"
	msgSubmitRk  = "compare.rank.submit"
	msgVerdictRk = "compare.rank.verdict"
)

// EqualityConfig describes one equality run between two holders and a
// TTP that is neither of them.
type EqualityConfig struct {
	// P is the prime modulus of the transform space; must exceed every
	// possible value.
	P *big.Int
	// Holders are the two nodes with private values.
	Holders [2]string
	// TTP is the blind comparison node.
	TTP string
	// Session disambiguates concurrent runs.
	Session string
}

func (c *EqualityConfig) validate() error {
	if c.P == nil || c.P.Cmp(big.NewInt(3)) < 0 {
		return fmt.Errorf("%w: modulus too small", smc.ErrProtocol)
	}
	if c.Holders[0] == "" || c.Holders[1] == "" || c.Holders[0] == c.Holders[1] {
		return fmt.Errorf("%w: need two distinct holders", smc.ErrProtocol)
	}
	if c.TTP == "" || c.TTP == c.Holders[0] || c.TTP == c.Holders[1] {
		return fmt.Errorf("%w: TTP must be a third party", smc.ErrProtocol)
	}
	if c.Session == "" {
		return fmt.Errorf("%w: empty session", smc.ErrProtocol)
	}
	return nil
}

// Equal executes a holder's role: derive the joint (a, b), submit the
// transformed value, await the verdict.
func Equal(ctx context.Context, mb *transport.Mailbox, cfg EqualityConfig, value *big.Int) (bool, error) {
	if err := cfg.validate(); err != nil {
		return false, err
	}
	if value == nil {
		return false, fmt.Errorf("%w: nil value", smc.ErrProtocol)
	}
	self := mb.ID()
	var peer string
	switch self {
	case cfg.Holders[0]:
		peer = cfg.Holders[1]
	case cfg.Holders[1]:
		peer = cfg.Holders[0]
	default:
		return false, fmt.Errorf("%w: %q is not a holder", smc.ErrProtocol, self)
	}

	a, b, _, err := jointSecret(ctx, mb, cfg.P, []string{peer}, cfg.Session)
	if err != nil {
		return false, err
	}
	// W = (a*value + b) mod p.
	w := new(big.Int).Mul(a, value)
	w.Add(w, b)
	w.Mod(w, cfg.P)
	if err := mb.SendBody(ctx, cfg.TTP, msgSubmitEq, cfg.Session, &submitBody{W: w}); err != nil {
		return false, err
	}
	msg, err := mb.Expect(ctx, msgVerdictEq, cfg.Session)
	if err != nil {
		return false, fmt.Errorf("compare: awaiting verdict: %w", err)
	}
	var verdict eqVerdictBody
	if err := transport.Unmarshal(msg.Payload, &verdict); err != nil {
		return false, err
	}
	return verdict.Equal, nil
}

// ServeEqual executes the TTP's role: receive both transformed values,
// compare, return only the boolean to both holders.
func ServeEqual(ctx context.Context, mb *transport.Mailbox, cfg EqualityConfig) error {
	if err := cfg.validate(); err != nil {
		return err
	}
	ws := make(map[string]*big.Int, 2)
	for len(ws) < 2 {
		msg, err := mb.Expect(ctx, msgSubmitEq, cfg.Session)
		if err != nil {
			return fmt.Errorf("compare: awaiting submissions: %w", err)
		}
		if msg.From != cfg.Holders[0] && msg.From != cfg.Holders[1] {
			return fmt.Errorf("%w: submission from non-holder %q", smc.ErrProtocol, msg.From)
		}
		var body submitBody
		if err := transport.Unmarshal(msg.Payload, &body); err != nil {
			return err
		}
		ws[msg.From] = body.W
	}
	verdict := &eqVerdictBody{Equal: ws[cfg.Holders[0]].Cmp(ws[cfg.Holders[1]]) == 0}
	for _, h := range cfg.Holders {
		if err := mb.SendBody(ctx, h, msgVerdictEq, cfg.Session, verdict); err != nil {
			return err
		}
	}
	return nil
}

// RankConfig describes one Max/Min/Rank run among n holders and a TTP.
type RankConfig struct {
	// Holders are the nodes with private values, in canonical order.
	Holders []string
	// TTP is the blind sorting node.
	TTP string
	// MaxValue bounds every holder's value (inclusive); the monotone
	// transform is sampled against this bound.
	MaxValue *big.Int
	// Session disambiguates concurrent runs.
	Session string
}

func (c *RankConfig) validate() error {
	if err := smc.ValidateRing(c.Holders, 2); err != nil {
		return err
	}
	if c.TTP == "" || smc.Contains(c.Holders, c.TTP) {
		return fmt.Errorf("%w: TTP must be a third party", smc.ErrProtocol)
	}
	if c.MaxValue == nil || c.MaxValue.Sign() <= 0 {
		return fmt.Errorf("%w: missing value bound", smc.ErrProtocol)
	}
	if c.Session == "" {
		return fmt.Errorf("%w: empty session", smc.ErrProtocol)
	}
	return nil
}

// RankResult is the verdict every holder receives.
type RankResult struct {
	// MaxHolder and MinHolder name the nodes with the extreme values.
	MaxHolder string
	MinHolder string
	// Rank maps holder ID to its 1-based rank in descending order
	// (rank 1 = maximum). Ties share the lower rank number.
	Rank map[string]int
}

// Rank executes a holder's role in Max/Min/Rank.
func Rank(ctx context.Context, mb *transport.Mailbox, cfg RankConfig, value *big.Int) (*RankResult, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if value == nil || value.Sign() < 0 || value.Cmp(cfg.MaxValue) > 0 {
		return nil, fmt.Errorf("%w: value out of [0, MaxValue]", smc.ErrProtocol)
	}
	self := mb.ID()
	if !smc.Contains(cfg.Holders, self) {
		return nil, fmt.Errorf("%w: %q is not a holder", smc.ErrProtocol, self)
	}
	peers := make([]string, 0, len(cfg.Holders)-1)
	for _, h := range cfg.Holders {
		if h != self {
			peers = append(peers, h)
		}
	}
	// Joint a, b sampled against a bound far above MaxValue; the
	// transform W = a·x + b over the integers is strictly increasing
	// because a ≥ 1.
	bound := new(big.Int).Lsh(cfg.MaxValue, 64)
	a, b, _, err := jointSecret(ctx, mb, bound, peers, cfg.Session)
	if err != nil {
		return nil, err
	}
	w := new(big.Int).Mul(a, value)
	w.Add(w, b)
	if err := mb.SendBody(ctx, cfg.TTP, msgSubmitRk, cfg.Session, &submitBody{W: w}); err != nil {
		return nil, err
	}
	msg, err := mb.Expect(ctx, msgVerdictRk, cfg.Session)
	if err != nil {
		return nil, fmt.Errorf("compare: awaiting rank verdict: %w", err)
	}
	var verdict rankVerdictBody
	if err := transport.Unmarshal(msg.Payload, &verdict); err != nil {
		return nil, err
	}
	if len(verdict.Ranks) != len(cfg.Holders) {
		return nil, fmt.Errorf("%w: %d ranks for %d holders", smc.ErrProtocol, len(verdict.Ranks), len(cfg.Holders))
	}
	res := &RankResult{
		MaxHolder: cfg.Holders[verdict.Max],
		MinHolder: cfg.Holders[verdict.Min],
		Rank:      make(map[string]int, len(cfg.Holders)),
	}
	for i, h := range cfg.Holders {
		res.Rank[h] = verdict.Ranks[i]
	}
	return res, nil
}

// ServeRank executes the TTP's role: collect transformed values from
// every holder, sort, return extreme holders and ranks (values never
// leave the TTP, and the TTP never saw plaintexts).
func ServeRank(ctx context.Context, mb *transport.Mailbox, cfg RankConfig) error {
	if err := cfg.validate(); err != nil {
		return err
	}
	ws := make(map[string]*big.Int, len(cfg.Holders))
	for len(ws) < len(cfg.Holders) {
		msg, err := mb.Expect(ctx, msgSubmitRk, cfg.Session)
		if err != nil {
			return fmt.Errorf("compare: awaiting rank submissions: %w", err)
		}
		if !smc.Contains(cfg.Holders, msg.From) {
			return fmt.Errorf("%w: submission from non-holder %q", smc.ErrProtocol, msg.From)
		}
		var body submitBody
		if err := transport.Unmarshal(msg.Payload, &body); err != nil {
			return err
		}
		ws[msg.From] = body.W
	}
	// order holds holder positions, by value descending (rank 1 is the
	// maximum), ties by holder ID.
	order := make([]int, len(cfg.Holders))
	for i := range order {
		order[i] = i
	}
	w := func(i int) *big.Int { return ws[cfg.Holders[i]] }
	sort.Slice(order, func(i, j int) bool {
		if c := w(order[i]).Cmp(w(order[j])); c != 0 {
			return c > 0
		}
		return cfg.Holders[order[i]] < cfg.Holders[order[j]]
	})
	res := &rankVerdictBody{Ranks: make([]int, len(order)), Max: order[0], Min: order[len(order)-1]}
	rank := 0
	for i, h := range order {
		if i == 0 || w(h).Cmp(w(order[i-1])) != 0 {
			rank = i + 1
		}
		res.Ranks[h] = rank
	}
	// Ties at the top/bottom: the canonical extreme is the tied holder
	// with the smallest ID, which the sort already guarantees.
	for _, h := range cfg.Holders {
		if err := mb.SendBody(ctx, h, msgVerdictRk, cfg.Session, res); err != nil {
			return err
		}
	}
	return nil
}

// jointSecret derives shared (a, b) and a shared key among self and
// peers by contribution: every party sends the others a random pair in
// [1, bound) and keySize random bytes; a and b are the sums of the
// pairs, so a ≥ 1 makes the transform injective (and monotone in the
// integer variant), and the key is the XOR of the byte strings. A run
// that needs only the key passes a nil bound and gets nil a and b. A
// contribution out of range is refused.
func jointSecret(ctx context.Context, mb *transport.Mailbox, bound *big.Int, peers []string, session string) (a, b *big.Int, key []byte, err error) {
	var mine seedBody
	if bound != nil {
		if mine.A, err = mathx.RandScalar(nil, bound); err != nil {
			return nil, nil, nil, fmt.Errorf("compare: sampling a: %w", err)
		}
		if mine.B, err = mathx.RandScalar(nil, bound); err != nil {
			return nil, nil, nil, fmt.Errorf("compare: sampling b: %w", err)
		}
		a, b = new(big.Int).Set(mine.A), new(big.Int).Set(mine.B)
	}
	if _, err := rand.Read(mine.K[:]); err != nil {
		return nil, nil, nil, fmt.Errorf("compare: sampling key: %w", err)
	}
	for _, p := range peers {
		if err := mb.SendBody(ctx, p, msgSeed, session, &mine); err != nil {
			return nil, nil, nil, err
		}
	}
	key = mine.K[:]
	for range peers {
		msg, err := mb.Expect(ctx, msgSeed, session)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("compare: awaiting seed: %w", err)
		}
		var sb seedBody
		if err := transport.Unmarshal(msg.Payload, &sb); err != nil {
			return nil, nil, nil, err
		}
		if !inRange(sb.A, bound) || !inRange(sb.B, bound) {
			return nil, nil, nil, fmt.Errorf("%w: seed from %s out of range", smc.ErrProtocol, msg.From)
		}
		if bound != nil {
			a.Add(a, sb.A)
			b.Add(b, sb.B)
		}
		subtle.XORBytes(key, key, sb.K[:])
	}
	return a, b, key, nil
}

// inRange reports whether a seed contribution lies in [1, bound), or is
// absent where bound is.
func inRange(v, bound *big.Int) bool {
	if bound == nil || v == nil {
		return bound == nil && v == nil
	}
	return v.Sign() > 0 && v.Cmp(bound) < 0
}
