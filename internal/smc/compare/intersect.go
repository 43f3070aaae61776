package compare

import (
	"context"
	"crypto/hmac"
	"crypto/sha256"
	"fmt"
	"math/rand/v2"
	"slices"

	"confaudit/internal/smc"
	"confaudit/internal/transport"
)

// Batch intersection: §3.1's ∩s computed by a blind TTP instead of a
// commutative-encryption ring. k members each hold a set (in the DLA
// system, the glsns matching a node's subqueries, or a holder's
// (glsn, value) pairs for a cross-node equality) and the receivers
// among them need the elements common to every set. The members derive
// a joint secret the TTP never sees and each submits one keyed tag per
// element, HMAC-SHA256 over the element, in an order of its own
// choosing at random. The TTP finds the tags that occur in all k
// submissions and sends each receiver the positions of those tags in
// that receiver's own submission; the receiver maps them back to its
// elements. A member that is no receiver gets nothing back.
//
// Views. A receiver learns the intersection and nothing about the other
// members' elements outside it: its verdict is as long as the result.
// Any other member learns nothing. The TTP learns each set's size and
// which tags recur across submissions (the overlap structure), never an
// element; a fresh key per run keeps tags from linking across runs. A
// TTP that lies can only make a receiver drop its own elements or keep
// ones that are not common: each receiver maps positions into its own
// set alone, so what receivers agree on is always a subset of the true
// intersection.

// Message types on the wire.
const (
	msgSubmitIntersect  = "compare.intersect.submit"
	msgVerdictIntersect = "compare.intersect.verdict"
)

// TagSize is the width of one submitted tag, in bytes.
const TagSize = sha256.Size

// IntersectConfig describes one batch-intersection run.
type IntersectConfig struct {
	// Members are the set holders.
	Members []string
	// Receivers are the members that receive the result: a non-empty
	// subset of Members.
	Receivers []string
	// TTP is the blind node that matches tags, distinct from every
	// member.
	TTP string
	// Session disambiguates concurrent runs.
	Session string
}

func (c *IntersectConfig) validate() error {
	if err := validateBatch(c.Members, c.TTP, c.Session); err != nil {
		return err
	}
	if len(c.Receivers) == 0 {
		return fmt.Errorf("%w: no receivers", smc.ErrProtocol)
	}
	for _, r := range c.Receivers {
		if !smc.Contains(c.Members, r) {
			return fmt.Errorf("%w: receiver %q is not a member", smc.ErrProtocol, r)
		}
	}
	return nil
}

// validateBatch checks the parties and session every batch run shares:
// two or more distinct holders, a TTP that is none of them, a session.
func validateBatch(holders []string, ttp, session string) error {
	if err := smc.ValidateRing(holders, 2); err != nil {
		return err
	}
	if ttp == "" || smc.Contains(holders, ttp) {
		return fmt.Errorf("%w: TTP must be a third party", smc.ErrProtocol)
	}
	if session == "" {
		return fmt.Errorf("%w: empty session", smc.ErrProtocol)
	}
	return nil
}

// Intersect executes a member's role. elems is the member's set, one
// canonical byte string per element with no duplicates; two members'
// elements match iff their bytes are equal. A receiver gets back the
// indexes, in ascending order, of the elements of elems that every
// member holds; any other member returns nil once it has submitted.
func Intersect(ctx context.Context, mb *transport.Mailbox, cfg IntersectConfig, elems [][]byte) ([]int, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	self := mb.ID()
	if !smc.Contains(cfg.Members, self) {
		return nil, fmt.Errorf("%w: %q is not a member", smc.ErrProtocol, self)
	}
	peers := make([]string, 0, len(cfg.Members)-1)
	for _, m := range cfg.Members {
		if m != self {
			peers = append(peers, m)
		}
	}
	// The joint key is the tag key; the run needs no transform.
	_, _, key, err := jointSecret(ctx, mb, nil, peers, cfg.Session)
	if err != nil {
		return nil, err
	}
	// Submission position j carries elems[perm[j]], so the TTP sees the
	// set in no order of the member's.
	perm := rand.Perm(len(elems))
	mac := hmac.New(sha256.New, key)
	body := &intersectSubmitBody{Members: len(cfg.Members), Tags: make([]byte, 0, len(elems)*TagSize)}
	for _, i := range perm {
		mac.Reset()
		mac.Write(elems[i]) //nolint:errcheck // hash writes never fail
		body.Tags = mac.Sum(body.Tags)
	}
	if err := mb.SendBody(ctx, cfg.TTP, msgSubmitIntersect, cfg.Session, body); err != nil {
		return nil, err
	}
	if !smc.Contains(cfg.Receivers, self) {
		return nil, nil
	}
	msg, err := mb.ExpectFrom(ctx, cfg.TTP, msgVerdictIntersect, cfg.Session)
	if err != nil {
		return nil, fmt.Errorf("compare: awaiting intersection verdict: %w", err)
	}
	var verdict intersectVerdictBody
	if err := transport.Unmarshal(msg.Payload, &verdict); err != nil {
		return nil, err
	}
	out := make([]int, len(verdict.Common))
	for n, j := range verdict.Common {
		// The decoder refused a list that is not strictly ascending.
		if j >= len(perm) {
			return nil, fmt.Errorf("%w: verdict position %d is out of range", smc.ErrProtocol, j)
		}
		out[n] = perm[j]
	}
	slices.Sort(out)
	return out, nil
}

// ServeIntersect executes the TTP role for one batch-intersection run:
// it takes exactly one submission from every member, refusing a
// non-member, a second submission, a member count other than its own,
// a tag run that is not whole TagSize-wide tags (at decoding) and a tag
// submitted twice, then sends each receiver the positions of its tags
// that all members submitted.
// It returns what the TTP saw: each member's set size, in cfg.Members
// order, and the size of the intersection.
func ServeIntersect(ctx context.Context, mb *transport.Mailbox, cfg IntersectConfig) (sizes []int, common int, err error) {
	if err := cfg.validate(); err != nil {
		return nil, 0, err
	}
	k := len(cfg.Members)
	subs := make(map[string][]byte, k)
	// seen counts, per tag, the submissions holding it; last is the
	// index of the latest one, which catches a tag submitted twice.
	type seen struct{ n, last int }
	tally := make(map[[TagSize]byte]seen)
	for len(subs) < k {
		msg, err := mb.Expect(ctx, msgSubmitIntersect, cfg.Session)
		if err != nil {
			return nil, 0, fmt.Errorf("compare: awaiting intersection submissions: %w", err)
		}
		if !smc.Contains(cfg.Members, msg.From) {
			return nil, 0, fmt.Errorf("%w: submission from non-member %q", smc.ErrProtocol, msg.From)
		}
		if _, dup := subs[msg.From]; dup {
			return nil, 0, fmt.Errorf("%w: second submission from %s", smc.ErrProtocol, msg.From)
		}
		var body intersectSubmitBody
		if err := transport.Unmarshal(msg.Payload, &body); err != nil {
			return nil, 0, err
		}
		if body.Members != k {
			return nil, 0, fmt.Errorf("%w: %s runs with %d members, want %d", smc.ErrProtocol, msg.From, body.Members, k)
		}
		idx := len(subs) + 1
		for off := 0; off < len(body.Tags); off += TagSize {
			t := [TagSize]byte(body.Tags[off:])
			s := tally[t]
			if s.last == idx {
				return nil, 0, fmt.Errorf("%w: %s submitted one tag twice", smc.ErrProtocol, msg.From)
			}
			tally[t] = seen{n: s.n + 1, last: idx}
		}
		subs[msg.From] = body.Tags
	}
	sizes = make([]int, k)
	for i, m := range cfg.Members {
		sizes[i] = len(subs[m]) / TagSize
	}
	for _, r := range cfg.Receivers {
		verdict := new(intersectVerdictBody)
		for j := range len(subs[r]) / TagSize {
			if tally[[TagSize]byte(subs[r][j*TagSize:])].n == k {
				verdict.Common = append(verdict.Common, j)
			}
		}
		common = len(verdict.Common)
		if err := mb.SendBody(ctx, r, msgVerdictIntersect, cfg.Session, verdict); err != nil {
			return nil, 0, err
		}
	}
	return sizes, common, nil
}
