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
// it. The attest round uses MsgAttest/MsgAttestResult instead: one
// parallel round trip per peer, each peer verifying its own fragment
// locally.
const (
	MsgCirculate    = "integrity.circulate"
	MsgResult       = "integrity.result"
	MsgAttest       = "integrity.attest"
	MsgAttestResult = "integrity.attest_result"
)

// Errors reported by integrity checking.
var (
	// ErrNoDigest indicates a record with no stored digest to verify
	// against.
	ErrNoDigest = errors.New("integrity: no stored digest")
	// ErrFragmentMissing indicates a ring node without the fragment.
	ErrFragmentMissing = errors.New("integrity: fragment missing on a node")
	// ErrNoExponent indicates that a store keeps no digest exponent for
	// the record (it is no ExponentStore, or it does not hold the glsn),
	// so the local check cannot decide and circulation must.
	ErrNoExponent = errors.New("integrity: no stored digest exponent")
)

// Store is the node-local state the protocol reads: the fragment and
// the user-supplied record digest for a glsn.
type Store interface {
	Fragment(g logmodel.GLSN) (logmodel.Fragment, bool)
	Digest(g logmodel.GLSN) (*big.Int, bool)
}

// ExponentStore is the extension a store implements to keep each
// record's digest exponent dexp, the product of every fragment's hash
// exponent, as writers ship it at log time. A cluster node refuses any
// stored item without it, so it holds one for every record it holds.
// With dexp, a node verifies its fragment against the record in one
// integer division — no ring traffic, no exponentiation — and a
// whole-record check becomes one parallel attest round instead of a
// sequential circulation.
type ExponentStore interface {
	DigestExp(g logmodel.GLSN) (*big.Int, bool)
}

type circulateBody struct {
	GLSN      logmodel.GLSN `json:"glsn"`
	Initiator string        `json:"initiator"`
	Hops      int           `json:"hops"`
	Value     *big.Int      `json:"value"`
	// Missing is set when some ring node had no fragment for the glsn.
	Missing string `json:"missing,omitempty"`
}

// Serve runs the responder loops — circulation relay and witness
// attestation — until ctx is cancelled or the mailbox closes. Every
// ring node (including check initiators) must run Serve.
func Serve(ctx context.Context, mb *transport.Mailbox, ring []string, params *accumulator.Params, store Store) error {
	done := make(chan error, 1)
	go func() { done <- serveAttest(ctx, mb, store) }()
	err := serveCirculate(ctx, mb, ring, params, store)
	if aerr := <-done; err == nil {
		err = aerr
	}
	return err
}

// serveCirculate folds the local fragment into incoming partial
// accumulations and forwards them along the ring.
func serveCirculate(ctx context.Context, mb *transport.Mailbox, ring []string, params *accumulator.Params, store Store) error {
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

type attestBody struct {
	GLSN      logmodel.GLSN `json:"glsn"`
	Initiator string        `json:"initiator"`
}

type attestResult struct {
	GLSN logmodel.GLSN `json:"glsn"`
	// OK reports that the responder's fragment verified against the
	// stored digest exponent. Any other outcome — no exponent, missing
	// fragment, mismatch — leaves OK false and sends the initiator back
	// to authoritative circulation.
	OK bool `json:"ok"`
}

// serveAttest answers attestation requests: verify the local fragment
// against the local digest exponent, reply with the verdict.
func serveAttest(ctx context.Context, mb *transport.Mailbox, store Store) error {
	for {
		msg, err := mb.ExpectType(ctx, MsgAttest)
		if err != nil {
			if errors.Is(err, context.Canceled) || errors.Is(err, transport.ErrClosed) {
				return nil
			}
			return err
		}
		var body attestBody
		if err := transport.Unmarshal(msg.Payload, &body); err != nil {
			continue
		}
		resp := attestResult{GLSN: body.GLSN, OK: CheckLocal(store, body.GLSN) == nil}
		mb.SendBody(ctx, body.Initiator, MsgAttestResult, msg.Session, resp) //nolint:errcheck // lost reply surfaces as initiator timeout
	}
}

// CheckLocal verifies this node's fragment against the record's stored
// digest exponent: the fragment's hash exponent must divide it
// (accumulator.Member) — one division, no messages. It returns
// ErrNoExponent when the store keeps no digest exponent for g; a failed
// local check makes the attest round unclean, and Check then
// circulates.
//
// It gives no verdict on a fragment without values. Every node's empty
// fragment of g has the same canonical form, so whenever another
// node's fragment of the record is empty, H(empty) divides dexp and a
// wiped fragment would pass the division; only circulation, which
// folds each node's fragment once, can tell the two apart.
func CheckLocal(store Store, g logmodel.GLSN) error {
	es, ok := store.(ExponentStore)
	if !ok {
		return fmt.Errorf("%w: store does not keep digest exponents", ErrNoExponent)
	}
	dexp, ok := es.DigestExp(g)
	if !ok {
		return fmt.Errorf("%w: glsn %s", ErrNoExponent, g)
	}
	frag, ok := store.Fragment(g)
	if !ok {
		return fmt.Errorf("%w: glsn %s", ErrFragmentMissing, g)
	}
	if len(frag.Values) == 0 {
		return fmt.Errorf("integrity: fragment of glsn %s holds no values: the local check cannot tell it from another node's", g)
	}
	if !accumulator.Member(dexp, frag.Canonical()) {
		return fmt.Errorf("integrity: fragment of glsn %s is not a factor of its digest: tampered or corrupted", g)
	}
	return nil
}

// checkSeq makes concurrent checks from one node collision-free.
var checkSeq atomic.Uint64

// checkAttest runs the attest fast path for one glsn: verify the local
// fragment, then ask every peer to verify its own in parallel. It
// reports clean only when the local check and every peer's attestation
// pass; any other outcome (a store without the digest exponent, a
// mismatch, a transport failure) sends the caller back to circulation,
// which stays the authoritative verdict. The whole round is one
// parallel RTT, so a sweep's critical path drops from n sequential
// fold-and-forward hops per record to a single exchange.
func checkAttest(ctx context.Context, mb *transport.Mailbox, ring []string, store Store, g logmodel.GLSN) bool {
	self := mb.ID()
	if CheckLocal(store, g) != nil {
		return false
	}
	session := "iatt/" + self + "/" + g.String() + "/" + strconv.FormatUint(checkSeq.Add(1), 10)
	sent := 0
	for _, node := range ring {
		if node == self {
			continue
		}
		if mb.SendBody(ctx, node, MsgAttest, session, attestBody{GLSN: g, Initiator: self}) != nil {
			break
		}
		sent++
	}
	clean := sent == len(ring)-1
	// Collect every reply that was solicited, even after a failure, so
	// stray results do not linger in the mailbox.
	for i := 0; i < sent; i++ {
		res, err := mb.Expect(ctx, MsgAttestResult, session)
		if err != nil {
			return false
		}
		var r attestResult
		if err := transport.Unmarshal(res.Payload, &r); err != nil || r.GLSN != g || !r.OK {
			clean = false
		}
	}
	return clean
}

// Check verifies one glsn against the stored digest. It first runs the
// attest round (one parallel round, each node verifying locally against
// its digest exponent). Circulating the accumulator around the ring is
// the authoritative fallback: it runs whenever the attest round does
// not come back unanimously clean — a node without the fragment or its
// digest exponent, a tampered fragment, a lost reply. The caller's node
// must be a ring member running Serve (for other initiators' checks).
func Check(ctx context.Context, mb *transport.Mailbox, ring []string, params *accumulator.Params, store Store, g logmodel.GLSN) error {
	if checkAttest(ctx, mb, ring, store, g) {
		return nil
	}
	return checkCirculate(ctx, mb, ring, params, store, g)
}

// checkCirculate circulates the accumulator for one glsn around the
// ring and compares the result with the stored digest; the initiator's
// own fragment is folded in locally before the first hop.
func checkCirculate(ctx context.Context, mb *transport.Mailbox, ring []string, params *accumulator.Params, store Store, g logmodel.GLSN) error {
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
	if final.Hops != len(ring) {
		return fmt.Errorf("integrity: circulation returned after %d of %d hops", final.Hops, len(ring))
	}
	if final.Value == nil || final.Value.Cmp(want) != 0 {
		return fmt.Errorf("integrity: digest mismatch for glsn %s: record tampered or corrupted", g)
	}
	return nil
}

// Report summarizes a sweep over many records.
type Report struct {
	// Checked counts records examined.
	Checked int
	// Corrupted lists glsns whose circulation did not match the digest.
	Corrupted []logmodel.GLSN
	// Errors maps glsns to non-verdict failures (missing fragments,
	// transport errors).
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
// flight so ring latency overlaps. Mismatches are collected rather than
// aborting the sweep; the report lists corrupted glsns in input order.
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
		case errors.Is(err, ErrNoDigest) || errors.Is(err, ErrFragmentMissing):
			rep.Errors[g] = err
		default:
			rep.Corrupted = append(rep.Corrupted, g)
		}
	}
	return rep
}
