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
//   - Batch forms of both, over many shared keys at once: BatchCompare
//     returns per-key order signs, and BatchEqual per-key equality
//     from one keyed tag per key, which the TTP judges without any
//     transform of the value it could order or relate across keys.
//
// In every protocol the joint secrets are derived by additive
// contribution from every holder (each sends a random pair to the
// others), so the TTP cannot know the transform, and no single holder
// chooses it alone — the paper's "provision must be made to prevent the
// TTP from ... colluding with the nodes submitting the inquiry".
//
// Leakage (permitted by Definition 1's relaxed model): the TTP learns
// equality patterns, the order of the transformed values, and scaled
// gaps between them (BatchEqual: one equality bit per key only); it
// never sees a plaintext value.
package compare

import (
	"context"
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

type seedBody struct {
	A string `json:"a"`
	B string `json:"b"`
}

type submitBody struct {
	W string `json:"w"`
}

type eqVerdictBody struct {
	Equal bool `json:"equal"`
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

	a, b, err := jointSecret(ctx, mb, cfg.P, []string{peer}, cfg.Session)
	if err != nil {
		return false, err
	}
	// W = (a*value + b) mod p.
	w := new(big.Int).Mul(a, value)
	w.Add(w, b)
	w.Mod(w, cfg.P)
	if err := mb.SendBody(ctx, cfg.TTP, msgSubmitEq, cfg.Session, submitBody{W: smc.EncodeBig(w)}); err != nil {
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
		w, err := smc.DecodeBig(body.W)
		if err != nil {
			return err
		}
		ws[msg.From] = w
	}
	verdict := eqVerdictBody{Equal: ws[cfg.Holders[0]].Cmp(ws[cfg.Holders[1]]) == 0}
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
	MaxHolder string `json:"max_holder"`
	MinHolder string `json:"min_holder"`
	// Rank maps holder ID to its 1-based rank in descending order
	// (rank 1 = maximum). Ties share the lower rank number.
	Rank map[string]int `json:"rank"`
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
	a, b, err := jointSecret(ctx, mb, bound, peers, cfg.Session)
	if err != nil {
		return nil, err
	}
	w := new(big.Int).Mul(a, value)
	w.Add(w, b)
	if err := mb.SendBody(ctx, cfg.TTP, msgSubmitRk, cfg.Session, submitBody{W: smc.EncodeBig(w)}); err != nil {
		return nil, err
	}
	msg, err := mb.Expect(ctx, msgVerdictRk, cfg.Session)
	if err != nil {
		return nil, fmt.Errorf("compare: awaiting rank verdict: %w", err)
	}
	var res RankResult
	if err := transport.Unmarshal(msg.Payload, &res); err != nil {
		return nil, err
	}
	return &res, nil
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
		w, err := smc.DecodeBig(body.W)
		if err != nil {
			return err
		}
		ws[msg.From] = w
	}
	type hw struct {
		holder string
		w      *big.Int
	}
	order := make([]hw, 0, len(ws))
	for h, w := range ws {
		order = append(order, hw{holder: h, w: w})
	}
	sort.Slice(order, func(i, j int) bool {
		c := order[i].w.Cmp(order[j].w)
		if c != 0 {
			return c > 0 // descending: rank 1 is the maximum
		}
		return order[i].holder < order[j].holder
	})
	res := RankResult{Rank: make(map[string]int, len(order))}
	res.MaxHolder = order[0].holder
	res.MinHolder = order[len(order)-1].holder
	rank := 0
	for i, e := range order {
		if i == 0 || e.w.Cmp(order[i-1].w) != 0 {
			rank = i + 1
		}
		res.Rank[e.holder] = rank
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

// jointSecret derives shared (a, b) among self and peers by additive
// contributions: every party broadcasts a random pair; the sums are the
// transform. a is forced into [1, bound) so the transform is injective
// (and monotone in the integer variant).
func jointSecret(ctx context.Context, mb *transport.Mailbox, bound *big.Int, peers []string, session string) (a, b *big.Int, err error) {
	myA, err := mathx.RandScalar(nil, bound)
	if err != nil {
		return nil, nil, fmt.Errorf("compare: sampling a: %w", err)
	}
	myB, err := mathx.RandScalar(nil, bound)
	if err != nil {
		return nil, nil, fmt.Errorf("compare: sampling b: %w", err)
	}
	body := seedBody{A: smc.EncodeBig(myA), B: smc.EncodeBig(myB)}
	for _, p := range peers {
		if err := mb.SendBody(ctx, p, msgSeed, session, body); err != nil {
			return nil, nil, err
		}
	}
	a = new(big.Int).Set(myA)
	b = new(big.Int).Set(myB)
	for range peers {
		msg, err := mb.Expect(ctx, msgSeed, session)
		if err != nil {
			return nil, nil, fmt.Errorf("compare: awaiting seed: %w", err)
		}
		var sb seedBody
		if err := transport.Unmarshal(msg.Payload, &sb); err != nil {
			return nil, nil, err
		}
		pa, err := smc.DecodeBig(sb.A)
		if err != nil {
			return nil, nil, err
		}
		pb, err := smc.DecodeBig(sb.B)
		if err != nil {
			return nil, nil, err
		}
		a.Add(a, pa)
		b.Add(b, pb)
	}
	// a stays ≥ 1 because every contribution is ≥ 1 (RandScalar range).
	return a, b, nil
}
