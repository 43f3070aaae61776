// Package sum implements the paper's secure sum Σs (§3.5): n nodes with
// local values a_0..a_{n-1} compute a_0+...+a_{n-1} (optionally the
// weighted sum Σ α_i a_i for public constants α_i) without revealing any
// individual value.
//
// The construction is exactly the paper's: each node P_i picks a random
// polynomial f_i over Z_p of degree ≤ k-1 with f_i(0) = a_i and deals
// the share s_ij = f_i(x_j) to node P_j. Each P_j adds the shares it
// received, obtaining a share (x_j, F(x_j)) of the summed polynomial
// F = Σ f_i, whose constant term is the total. Any k aggregated shares
// interpolate F(0) = Σ a_i. The receivers collect k shares and
// reconstruct; no subset of fewer than k nodes learns anything beyond
// its own inputs.
package sum

import (
	"context"
	"fmt"
	"math/big"

	"confaudit/internal/crypto/shamir"
	"confaudit/internal/smc"
	"confaudit/internal/transport"
	"confaudit/internal/workpool"
)

// Message types on the wire.
const (
	msgShare = "sum.share"
	msgAgg   = "sum.agg"
	msgOut   = "sum.result"
)

// Config describes one protocol run; identical across parties.
type Config struct {
	// P is the prime field modulus; must satisfy p >> Σ a_i or the total
	// wraps.
	P *big.Int
	// Parties lists participating node IDs; index in this slice fixes
	// the party's abscissa x_j = j+1.
	Parties []string
	// K is the reconstruction threshold (k of the (k,n) sharing).
	K int
	// Receivers are the nodes that learn the sum.
	Receivers []string
	// Weights optionally holds the public constants α_i, parallel to
	// Parties. Nil means the plain sum (all weights 1).
	Weights []*big.Int
	// Session disambiguates concurrent runs.
	Session string
}

func (c *Config) validate() error {
	if c.P == nil || c.P.Sign() <= 0 {
		return fmt.Errorf("%w: missing field modulus", smc.ErrProtocol)
	}
	if err := smc.ValidateRing(c.Parties, 2); err != nil {
		return err
	}
	if c.K < 1 || c.K > len(c.Parties) {
		return fmt.Errorf("%w: threshold %d with %d parties", smc.ErrProtocol, c.K, len(c.Parties))
	}
	if len(c.Receivers) == 0 {
		return fmt.Errorf("%w: no receivers", smc.ErrProtocol)
	}
	for _, r := range c.Receivers {
		if !smc.Contains(c.Parties, r) {
			return fmt.Errorf("%w: receiver %q is not a party", smc.ErrProtocol, r)
		}
	}
	if c.Weights != nil && len(c.Weights) != len(c.Parties) {
		return fmt.Errorf("%w: %d weights for %d parties", smc.ErrProtocol, len(c.Weights), len(c.Parties))
	}
	if c.Session == "" {
		return fmt.Errorf("%w: empty session", smc.ErrProtocol)
	}
	return nil
}

type shareBody struct {
	X string `json:"x"`
	Y string `json:"y"`
}

type resultBody struct {
	Sum string `json:"sum"`
}

// Run executes one party's role with its private value. Receivers get
// the (possibly weighted) total; other parties get nil.
func Run(ctx context.Context, mb *transport.Mailbox, cfg Config, value *big.Int) (*big.Int, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if value == nil {
		return nil, fmt.Errorf("%w: nil local value", smc.ErrProtocol)
	}
	self := mb.ID()
	selfIdx, err := smc.IndexOf(cfg.Parties, self)
	if err != nil {
		return nil, err
	}
	n := len(cfg.Parties)
	xs := shamir.DefaultAbscissae(n)

	// Deal shares of the local value to every party (including self).
	shares, err := shamir.SplitAt(nil, cfg.P, value, cfg.K, xs)
	if err != nil {
		return nil, fmt.Errorf("sum: splitting local value: %w", err)
	}
	// Apply this party's public weight to its own polynomial shares
	// (scaling every share by α_i scales the whole polynomial, so
	// F = Σ α_i f_i has constant term Σ α_i a_i, as in the paper) and
	// encode the per-party bodies, fanned over the worker pool.
	bodies := make([]shareBody, n)
	if err := workpool.Map(n, func(j int) error {
		if cfg.Weights != nil {
			var err error
			shares[j], err = shamir.ScaleShare(cfg.P, shares[j], cfg.Weights[selfIdx])
			if err != nil {
				return fmt.Errorf("sum: weighting share: %w", err)
			}
		}
		bodies[j] = shareBody{X: smc.EncodeBig(shares[j].X), Y: smc.EncodeBig(shares[j].Y)}
		return nil
	}); err != nil {
		return nil, err
	}
	for j, party := range cfg.Parties {
		if party == self {
			continue
		}
		if err := mb.SendBody(ctx, party, msgShare, cfg.Session, bodies[j]); err != nil {
			return nil, err
		}
	}

	// Collect one share from every other party and aggregate with our
	// own, yielding (x_self, F(x_self)).
	received := []shamir.Share{shares[selfIdx]}
	for i := 0; i < n-1; i++ {
		msg, err := mb.Expect(ctx, msgShare, cfg.Session)
		if err != nil {
			return nil, fmt.Errorf("sum: awaiting shares: %w", err)
		}
		var body shareBody
		if err := transport.Unmarshal(msg.Payload, &body); err != nil {
			return nil, err
		}
		x, err := smc.DecodeBig(body.X)
		if err != nil {
			return nil, err
		}
		y, err := smc.DecodeBig(body.Y)
		if err != nil {
			return nil, err
		}
		if x.Cmp(shares[selfIdx].X) != 0 {
			return nil, fmt.Errorf("%w: %s dealt a share at x=%v, want x=%v", smc.ErrProtocol, msg.From, x, shares[selfIdx].X)
		}
		received = append(received, shamir.Share{X: x, Y: y})
	}
	agg, err := shamir.AddShares(cfg.P, received)
	if err != nil {
		return nil, fmt.Errorf("sum: aggregating shares: %w", err)
	}

	// The first k parties ship their aggregated shares to the first
	// receiver, which reconstructs and distributes.
	reconstructor := cfg.Receivers[0]
	if selfIdx < cfg.K && self != reconstructor {
		body := shareBody{X: smc.EncodeBig(agg.X), Y: smc.EncodeBig(agg.Y)}
		if err := mb.SendBody(ctx, reconstructor, msgAgg, cfg.Session, body); err != nil {
			return nil, err
		}
	}

	if self == reconstructor {
		collected := make([]shamir.Share, 0, cfg.K)
		if selfIdx < cfg.K {
			collected = append(collected, agg)
		}
		for len(collected) < cfg.K {
			msg, err := mb.Expect(ctx, msgAgg, cfg.Session)
			if err != nil {
				return nil, fmt.Errorf("sum: awaiting aggregated shares: %w", err)
			}
			var body shareBody
			if err := transport.Unmarshal(msg.Payload, &body); err != nil {
				return nil, err
			}
			x, err := smc.DecodeBig(body.X)
			if err != nil {
				return nil, err
			}
			y, err := smc.DecodeBig(body.Y)
			if err != nil {
				return nil, err
			}
			collected = append(collected, shamir.Share{X: x, Y: y})
		}
		total, err := shamir.Combine(cfg.P, collected, cfg.K)
		if err != nil {
			return nil, fmt.Errorf("sum: reconstructing: %w", err)
		}
		for _, r := range cfg.Receivers {
			if r == self {
				continue
			}
			if err := mb.SendBody(ctx, r, msgOut, cfg.Session, resultBody{Sum: smc.EncodeBig(total)}); err != nil {
				return nil, err
			}
		}
		return total, nil
	}

	if !smc.Contains(cfg.Receivers, self) {
		return nil, nil
	}
	msg, err := mb.Expect(ctx, msgOut, cfg.Session)
	if err != nil {
		return nil, fmt.Errorf("sum: awaiting result: %w", err)
	}
	var body resultBody
	if err := transport.Unmarshal(msg.Payload, &body); err != nil {
		return nil, err
	}
	return smc.DecodeBig(body.Sum)
}
