// Package cluster implements the DLA node (paper §2, Figure 2): the
// fragment storage engine, the replicated access-control table, the
// glsn sequencer, and the signed distributed-majority-agreement rounds
// the paper invokes for "trusted and reliable auditing".
package cluster

import (
	"bytes"
	"context"
	"crypto/ed25519"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"confaudit/internal/logmodel"
	"confaudit/internal/telemetry"
	"confaudit/internal/transport"
)

// Message types of the agreement subprotocol.
const (
	msgAgreeReq    = "agree.req"
	msgAgreeVote   = "agree.vote"
	msgAgreeCommit = "agree.commit"
)

// Errors reported by agreement.
var (
	// ErrNoQuorum indicates fewer than a majority of valid votes.
	ErrNoQuorum = errors.New("cluster: no quorum")
	// ErrBadCertificate indicates a certificate failing verification.
	ErrBadCertificate = errors.New("cluster: invalid certificate")
)

// Certificate proves that a majority of the cluster signed a statement.
type Certificate struct {
	// Statement is the agreed byte string.
	Statement []byte `json:"statement"`
	// Votes maps node ID to its Ed25519 signature over Statement.
	Votes map[string][]byte `json:"votes"`
}

// verifyStatement checks an Ed25519 statement signature. A key of the
// wrong length fails here rather than panicking inside ed25519.Verify;
// a signature of the wrong length fails inside it.
func verifyStatement(pub ed25519.PublicKey, msg, sig []byte) bool {
	return len(pub) == ed25519.PublicKeySize && ed25519.Verify(pub, msg, sig)
}

// Quorum returns the majority threshold for n nodes.
func Quorum(n int) int { return n/2 + 1 }

// verifyCertificate checks that at least quorum distinct known nodes
// signed the statement, as node self checks it, having sent ownVote on
// the statement (nil if it remembers none). Ed25519 signing is
// deterministic, so the certificate's entry under self must be ownVote
// byte for byte, and a comparison stands in for its verify.
func verifyCertificate(keys map[string]ed25519.PublicKey, quorum int, cert *Certificate, self string, ownVote []byte) error {
	if cert == nil || len(cert.Statement) == 0 {
		return fmt.Errorf("%w: empty certificate", ErrBadCertificate)
	}
	valid := 0
	for node, sig := range cert.Votes {
		pub, known := keys[node]
		if !known {
			return fmt.Errorf("%w: vote from unknown node %q", ErrBadCertificate, node)
		}
		if ownVote != nil && node == self {
			if !bytes.Equal(sig, ownVote) {
				return fmt.Errorf("%w: vote under %q is not the one it sent", ErrBadCertificate, node)
			}
		} else if !verifyStatement(pub, cert.Statement, sig) {
			return fmt.Errorf("%w: bad signature from %q", ErrBadCertificate, node)
		}
		valid++
	}
	if valid < quorum {
		return fmt.Errorf("%w: %d of %d required votes", ErrNoQuorum, valid, quorum)
	}
	return nil
}

// sentVotes remembers the last votes a node sent, so that it can check
// its own entry in a commit certificate by comparing bytes. Rounds run
// one at a time under the leader's seqMu, so a few slots cover every
// commit that can still be in flight; a commit whose vote has been
// overwritten is verified in full.
type sentVotes struct {
	mu    sync.Mutex
	next  int
	slots [8]struct{ stmt, sig []byte }
}

// add remembers sig as the vote sent on stmt.
func (v *sentVotes) add(stmt, sig []byte) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.slots[v.next].stmt, v.slots[v.next].sig = stmt, sig
	v.next = (v.next + 1) % len(v.slots)
}

// sent returns the latest vote sent on stmt, or nil.
func (v *sentVotes) sent(stmt []byte) []byte {
	v.mu.Lock()
	defer v.mu.Unlock()
	for k := 1; k <= len(v.slots); k++ {
		s := v.slots[(v.next-k+len(v.slots))%len(v.slots)]
		if s.sig != nil && bytes.Equal(s.stmt, stmt) {
			return s.sig
		}
	}
	return nil
}

type agreeReqBody struct {
	Statement []byte `json:"statement"`
}

type agreeVoteBody struct {
	Sig []byte `json:"sig"`
	// Refused is set when the voter rejects the statement.
	Refused string `json:"refused,omitempty"`
}

type agreeCommitBody struct {
	Cert Certificate `json:"cert"`
}

// propose runs the coordinator side of one agreement round: broadcast
// the statement, gather signed votes until majority, and broadcast the
// commit certificate. The coordinator's own signature counts. Refusals
// are counted per peer, not per message, so one peer cannot refuse for
// several: the quorum arithmetic assumes distinct refusers. A peer's
// valid signature over the statement counts whatever it sent before.
// A well-formed signature that does not verify over this statement is
// dropped, not counted as a refusal: session names repeat across
// rounds, so it may be a late vote from an earlier round, and its
// sender still gets to vote on this one.
func (n *Node) propose(ctx context.Context, session string, statement []byte) (*Certificate, error) {
	defer telemetry.M.Histogram(telemetry.HistQuorumRound).Since(time.Now())
	cert := &Certificate{
		Statement: statement,
		Votes:     map[string][]byte{n.id: ed25519.Sign(n.signer, statement)},
	}
	req := agreeReqBody{Statement: statement}
	quorum := Quorum(len(n.roster))
	refused := make(map[string]bool, len(n.roster))
	for _, peer := range n.peers() {
		if err := n.mb.SendBody(ctx, peer, msgAgreeReq, session, &req); err != nil {
			// An unreachable peer cannot vote; treat it as a refusal so
			// a minority of dead nodes does not block the sequencer.
			refused[peer] = true
		}
	}
	for len(cert.Votes) < quorum {
		// Once too many peers refused, a quorum is unreachable.
		if len(refused) > len(n.roster)-quorum {
			return nil, fmt.Errorf("%w: %d refusals", ErrNoQuorum, len(refused))
		}
		msg, err := n.mb.Expect(ctx, msgAgreeVote, session)
		if err != nil {
			return nil, fmt.Errorf("cluster: awaiting votes: %w", err)
		}
		pub, known := n.peerKeys[msg.From]
		if !known || msg.From == n.id {
			continue // ignore votes from strangers and in our own name
		}
		// A vote that does not decode (a 63-byte signature, say), that
		// carries no signature or that refuses is that peer's refusal,
		// so a hostile peer cannot wedge the round.
		var vote agreeVoteBody
		if transport.Unmarshal(msg.Payload, &vote) != nil || vote.Sig == nil || vote.Refused != "" {
			if _, voted := cert.Votes[msg.From]; !voted {
				refused[msg.From] = true
			}
			continue
		}
		if !verifyStatement(pub, statement, vote.Sig) {
			continue // stale, or signed over something else
		}
		delete(refused, msg.From)
		cert.Votes[msg.From] = vote.Sig
	}
	commit := agreeCommitBody{Cert: *cert}
	for _, peer := range n.peers() {
		// Best effort: a node that misses the commit catches up through
		// the sync protocol when the next commit lands ahead of its
		// state, or a proposal or store waits too long on the gap.
		n.mb.SendBody(ctx, peer, msgAgreeCommit, session, &commit) //nolint:errcheck
	}
	return cert, nil
}

// --- follower catch-up sync ---

// Message types of the catch-up subprotocol.
const (
	msgSyncReq  = "seq.sync.req"
	msgSyncResp = "seq.sync.resp"
)

type syncReqBody struct {
	From logmodel.GLSN `json:"from"`
}

// grantRange is one applied sequencer statement: the glsns [First,
// First+Count) granted to TicketID. Every node keeps the ranges it
// applied, in glsn order, as its grant log.
type grantRange struct {
	First    logmodel.GLSN `json:"first"`
	Count    int           `json:"count"`
	TicketID string        `json:"ticket_id"`
}

// end is one past the range's last glsn.
func (r grantRange) end() logmodel.GLSN { return r.First + logmodel.GLSN(r.Count) }

// syncRespBody carries every grant at or past the requested glsn as
// ranges, one per missed commit. It has no cap: a range encodes in ~50
// bytes of JSON, so a response outgrows the 16 MiB TCP frame after
// ~300k missed commits. For single-record writers (Log) that is ~300k
// records; for an Appender at its defaults, whose glsn leases grow to
// MaxInflight × MaxBatchRecords = 512, ~150M.
type syncRespBody struct {
	Ranges []grantRange `json:"ranges"`
}

// grantsFrom returns the grant log from glsn from on, the first range
// trimmed to start at from: a binary search plus a copy of the missed
// ranges, O(log R + missed).
func (n *Node) grantsFrom(from logmodel.GLSN) []grantRange {
	n.mu.RLock()
	defer n.mu.RUnlock()
	i := sort.Search(len(n.grantLog), func(i int) bool { return n.grantLog[i].end() > from })
	out := append([]grantRange(nil), n.grantLog[i:]...)
	if len(out) > 0 && out[0].First < from {
		out[0].Count -= int(from - out[0].First)
		out[0].First = from
	}
	return out
}

// serveSync answers catch-up requests on the leader with the grant
// ranges at or past the requested glsn.
func (n *Node) serveSync(ctx context.Context) {
	for {
		msg, err := n.mb.ExpectType(ctx, msgSyncReq)
		if err != nil {
			return
		}
		var req syncReqBody
		if err := transport.Unmarshal(msg.Payload, &req); err != nil {
			continue
		}
		resp := syncRespBody{Ranges: n.grantsFrom(req.From)}
		if n.mb.SendBody(ctx, msg.From, msgSyncResp, msg.Session, resp) == nil {
			telemetry.M.Counter(telemetry.CtrSyncRanges).Add(int64(len(resp.Ranges)))
		}
	}
}

// syncFromLeader pulls missed grants from the leader and applies them,
// one journal entry per range. Catch-ups run one at a time, so a
// trigger that fires while another sync is in flight asks only for
// what that sync did not bring.
func (n *Node) syncFromLeader(ctx context.Context) (err error) {
	if n.isLeader() {
		return nil
	}
	n.syncMu.Lock()
	defer n.syncMu.Unlock()
	n.mu.RLock()
	from := n.nextGLSN
	n.mu.RUnlock()
	telemetry.M.Counter(telemetry.CtrSyncRequests).Add(1)
	applied := 0
	defer func() {
		telemetry.F.Record(telemetry.FlightEvent{
			Kind: telemetry.FlightSeqSync, Node: n.id, Peer: n.roster[0],
			GLSN: uint64(from), Count: applied, Outcome: telemetry.ErrClass(err),
		})
	}()
	session := "sync/" + n.id + "/" + from.String()
	if err := n.mb.SendBody(ctx, n.roster[0], msgSyncReq, session, syncReqBody{From: from}); err != nil {
		return err
	}
	waitCtx, cancel := context.WithTimeout(ctx, time.Second)
	defer cancel()
	msg, err := n.mb.Expect(waitCtx, msgSyncResp, session)
	if err != nil {
		return err
	}
	var resp syncRespBody
	if err := transport.Unmarshal(msg.Payload, &resp); err != nil {
		return err
	}
	for _, r := range resp.Ranges {
		if err = n.applyGrantRange(r.First, r.Count, r.TicketID); err != nil {
			break
		}
		applied++
	}
	if applied > 0 {
		n.stateChanged()
	}
	return err
}

// serveAgreement is the voter loop: validate incoming statements with
// the node's own state, vote, and apply committed certificates.
func (n *Node) serveAgreement(ctx context.Context) {
	for {
		msg, err := n.mb.ExpectType(ctx, msgAgreeReq)
		if err != nil {
			return
		}
		var req agreeReqBody
		if err := transport.Unmarshal(msg.Payload, &req); err != nil {
			continue
		}
		var vote agreeVoteBody
		if err := n.validateStatement(ctx, req.Statement); err != nil {
			vote.Refused = err.Error()
		} else {
			vote.Sig = ed25519.Sign(n.signer, req.Statement)
			n.votes.add(req.Statement, vote.Sig)
		}
		if err := n.mb.SendBody(ctx, msg.From, msgAgreeVote, msg.Session, &vote); err != nil {
			continue
		}
	}
}

// serveCommits applies certified statements.
func (n *Node) serveCommits(ctx context.Context) {
	for {
		msg, err := n.mb.ExpectType(ctx, msgAgreeCommit)
		if err != nil {
			return
		}
		var body agreeCommitBody
		if err := transport.Unmarshal(msg.Payload, &body); err != nil {
			continue
		}
		n.applyCommit(ctx, &body.Cert) //nolint:errcheck // a refused or unapplied commit is caught up by sync
	}
}

// applyCommit checks a commit certificate, comparing the node's own
// vote in it with the one it sent rather than verifying it again, and
// applies its statement.
func (n *Node) applyCommit(ctx context.Context, cert *Certificate) error {
	if err := verifyCertificate(n.peerKeys, Quorum(len(n.roster)), cert, n.id, n.votes.sent(cert.Statement)); err != nil {
		return err
	}
	err := n.applyStatement(cert.Statement)
	if errors.Is(err, errGLSNGap) {
		// Earlier commits were missed (partition, restart); pull
		// them from the leader, then apply this statement: the
		// leader broadcasts commits before applying them itself,
		// so its answer may stop just short of it.
		if err = n.syncFromLeader(ctx); err == nil {
			err = n.applyStatement(cert.Statement)
		}
	}
	return err
}
