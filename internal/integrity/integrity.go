// Package integrity implements the paper's distributed integrity
// cross-checking algorithm (§4.1): when a user logs a record it sends
// every DLA node the one-way-accumulator digest A(x0, Log_0..Log_{n-1})
// over all fragments; any node can later verify the record by
// circulating a partial accumulation around the ring — each node folds
// in the canonical encoding of its own stored fragment — and comparing
// the value that returns with the stored digest. Commutativity (eq. 9)
// makes the ring order irrelevant, and no node reveals its fragment to
// the others: only accumulator values travel.
package integrity

import (
	"context"
	"errors"
	"fmt"
	"math/big"
	"strconv"
	"sync"
	"sync/atomic"

	"confaudit/internal/crypto/accumulator"
	"confaudit/internal/logmodel"
	"confaudit/internal/smc"
	"confaudit/internal/transport"
)

// Message types: relays travel as MsgCirculate; the full-circle value
// returns to the initiator as MsgResult so responder loops never consume
// it.
const (
	MsgCirculate = "integrity.circulate"
	MsgResult    = "integrity.result"
)

// Errors reported by integrity checking.
var (
	// ErrNoDigest indicates a record with no stored digest to verify
	// against.
	ErrNoDigest = errors.New("integrity: no stored digest")
	// ErrFragmentMissing indicates a ring node without the fragment.
	ErrFragmentMissing = errors.New("integrity: fragment missing on a node")
	// ErrDigestMismatch is the one verdict: a circulation that visited
	// every ring node returned a value other than the stored digest, so
	// some fragment differs from the record as written.
	ErrDigestMismatch = errors.New("integrity: digest mismatch: record tampered or corrupted")
)

// Store is the node-local state the protocol reads: the fragment and
// the user-supplied record digest for a glsn.
type Store interface {
	Fragment(g logmodel.GLSN) (logmodel.Fragment, bool)
	Digest(g logmodel.GLSN) (*big.Int, bool)
}

type circulateBody struct {
	GLSN      logmodel.GLSN `json:"glsn"`
	Initiator string        `json:"initiator"`
	Hops      int           `json:"hops"`
	Value     *big.Int      `json:"value"`
	// Missing is set when some ring node had no fragment for the glsn.
	Missing string `json:"missing,omitempty"`
}

// Serve relays circulations until ctx is cancelled or the mailbox
// closes: it folds the local fragment into each incoming partial
// accumulation and forwards it along the ring. Every ring node
// (including check initiators) must run Serve.
func Serve(ctx context.Context, mb *transport.Mailbox, ring []string, params *accumulator.Params, store Store) error {
	self := mb.ID()
	next, err := smc.NextInRing(ring, self)
	if err != nil {
		return err
	}
	n := len(ring)
	for {
		msg, err := mb.ExpectType(ctx, MsgCirculate)
		if err != nil {
			if errors.Is(err, context.Canceled) || errors.Is(err, transport.ErrClosed) {
				return nil
			}
			return err
		}
		var body circulateBody
		if err := transport.Unmarshal(msg.Payload, &body); err != nil {
			continue
		}
		if body.Hops >= n {
			continue // stale loop remnant; drop
		}
		if body.Missing == "" {
			if frag, ok := store.Fragment(body.GLSN); ok {
				body.Value = params.Accumulate(body.Value, frag.Canonical())
			} else {
				body.Missing = self
			}
		}
		body.Hops++
		typ, to := MsgCirculate, next
		if body.Hops == n {
			// Full circle: hand the result back to the initiator.
			typ, to = MsgResult, body.Initiator
		}
		mb.SendBody(ctx, to, typ, msg.Session, body) //nolint:errcheck // broken ring surfaces as initiator timeout
	}
}

// checkSeq makes concurrent checks from one node collision-free.
var checkSeq atomic.Uint64

// Check verifies one glsn against the stored digest: it circulates the
// accumulator around the ring, each node folding in its own fragment
// (the initiator's before the first hop), and compares the value that
// returns with the stored digest. Only a completed circulation gives a
// verdict, wrapped in ErrDigestMismatch; every other failure (no
// digest, a missing fragment, a circle cut short, a transport error)
// says nothing about the record. The caller's node must be a ring
// member running Serve (for other initiators' checks).
func Check(ctx context.Context, mb *transport.Mailbox, ring []string, params *accumulator.Params, store Store, g logmodel.GLSN) error {
	self := mb.ID()
	next, err := smc.NextInRing(ring, self)
	if err != nil {
		return err
	}
	want, ok := store.Digest(g)
	if !ok {
		return fmt.Errorf("%w: glsn %s", ErrNoDigest, g)
	}
	frag, ok := store.Fragment(g)
	if !ok {
		return fmt.Errorf("%w: glsn %s on %s", ErrFragmentMissing, g, self)
	}
	session := "ichk/" + self + "/" + g.String() + "/" + strconv.FormatUint(checkSeq.Add(1), 10)
	body := circulateBody{
		GLSN:      g,
		Initiator: self,
		Hops:      1,
		Value:     params.Accumulate(params.X0, frag.Canonical()),
	}
	if err := mb.SendBody(ctx, next, MsgCirculate, session, body); err != nil {
		return fmt.Errorf("integrity: starting circulation: %w", err)
	}
	// The full-circle value comes back as MsgResult, which responder
	// loops never consume, so queuing order cannot lose it.
	res, err := mb.Expect(ctx, MsgResult, session)
	if err != nil {
		return fmt.Errorf("integrity: awaiting circulation: %w", err)
	}
	var final circulateBody
	if err := transport.Unmarshal(res.Payload, &final); err != nil {
		return err
	}
	if final.Missing != "" {
		return fmt.Errorf("%w: glsn %s on %s", ErrFragmentMissing, g, final.Missing)
	}
	// A circle cut short folded only some nodes' fragments, so its value
	// cannot be held against the digest: it is a relay fault, not a
	// verdict on the record (an honest ring never returns early).
	if final.Hops != len(ring) {
		return fmt.Errorf("integrity: circulation returned after %d of %d hops", final.Hops, len(ring))
	}
	if final.Value == nil || final.Value.Cmp(want) != 0 {
		return fmt.Errorf("%w: glsn %s", ErrDigestMismatch, g)
	}
	return nil
}

// Report summarizes a sweep over many records.
type Report struct {
	// Checked counts records examined.
	Checked int
	// Corrupted lists glsns whose completed circulation did not match
	// the digest (ErrDigestMismatch).
	Corrupted []logmodel.GLSN
	// Errors maps glsns to every other failure: no digest, missing
	// fragments, a circle cut short, transport errors and timeouts.
	Errors map[logmodel.GLSN]error
}

// Clean reports whether the sweep found no problems.
func (r *Report) Clean() bool { return len(r.Corrupted) == 0 && len(r.Errors) == 0 }

// checkAllParallelism bounds how many circulations a sweep keeps in
// flight at once. Per-check sessions are collision-free (checkSeq), so
// overlapping circulations interleave safely on the ring; the bound
// keeps a large sweep from flooding peers' mailboxes.
const checkAllParallelism = 8

// CheckAll sweeps the given glsns, keeping several circulations in
// flight so ring latency overlaps. Failures are collected rather than
// aborting the sweep; the report lists corrupted glsns in input order,
// and a dead or unreachable peer shows in Errors, never in Corrupted.
func CheckAll(ctx context.Context, mb *transport.Mailbox, ring []string, params *accumulator.Params, store Store, glsns []logmodel.GLSN) *Report {
	rep := &Report{Checked: len(glsns), Errors: make(map[logmodel.GLSN]error)}
	errs := make([]error, len(glsns))
	sem := make(chan struct{}, checkAllParallelism)
	var wg sync.WaitGroup
	for i, g := range glsns {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, g logmodel.GLSN) {
			defer wg.Done()
			defer func() { <-sem }()
			errs[i] = Check(ctx, mb, ring, params, store, g)
		}(i, g)
	}
	wg.Wait()
	for i, g := range glsns {
		switch err := errs[i]; {
		case err == nil:
		case errors.Is(err, ErrDigestMismatch):
			rep.Corrupted = append(rep.Corrupted, g)
		default:
			rep.Errors[g] = err
		}
	}
	return rep
}
