package cluster

import (
	"context"
	"fmt"
	"strconv"
	"sync/atomic"

	"confaudit/internal/smc/intersect"
	"confaudit/internal/transport"
)

// ACL consistency checking (paper §4.1, final paragraph): "since each
// glsn is authorized by some ticket, one could use the secure set
// intersection primitive to check the consistency of each ticket's
// authorization set." Every node contributes its access-control table
// rendered as canonical ticket|glsn elements; the cluster intersects
// them with ∩s, and each node verifies that the common set equals its
// own — i.e. the replicated tables agree — without shipping tables
// around in the clear.

// Message types of the ACL check subprotocol.
const (
	msgACLExec    = "aclcheck.exec"
	msgACLVerdict = "aclcheck.verdict"
	// MsgACLRequest and MsgACLReport let clients trigger a round
	// remotely (the dlactl aclcheck path).
	MsgACLRequest = "aclcheck.request"
	MsgACLReport  = "aclcheck.report"
)

type aclExecBody struct {
	Initiator string `json:"initiator"`
}

type aclVerdictBody struct {
	OK         bool   `json:"ok"`
	OwnSize    int    `json:"own_size"`
	CommonSize int    `json:"common_size"`
	Error      string `json:"error,omitempty"`
}

// ACLReport summarizes one consistency round.
type ACLReport struct {
	// Consistent is true when every node's table equals the common set.
	Consistent bool
	// Verdicts maps node ID to its own-vs-common comparison.
	Verdicts map[string]ACLVerdict
}

// ACLVerdict is one node's view.
type ACLVerdict struct {
	OK         bool
	OwnSize    int
	CommonSize int
	Error      string
}

var aclSeq atomic.Uint64

// ACLConsistencyCheck runs one §4.1 consistency round from this node:
// all cluster nodes intersect their access-control tables via ∩s and
// report whether their own table matches the common set.
func (n *Node) ACLConsistencyCheck(ctx context.Context) (*ACLReport, error) {
	session := "aclchk/" + n.id + "/" + strconv.FormatUint(aclSeq.Add(1), 10)
	body := aclExecBody{Initiator: n.id}
	for _, peer := range n.peers() {
		if err := n.mb.SendBody(ctx, peer, msgACLExec, session, body); err != nil {
			return nil, err
		}
	}
	// Participate ourselves.
	ownVerdict := n.runACLIntersection(ctx, session)

	report := &ACLReport{Consistent: true, Verdicts: make(map[string]ACLVerdict, len(n.roster))}
	report.Verdicts[n.id] = ownVerdict
	for len(report.Verdicts) < len(n.roster) {
		msg, err := n.mb.Expect(ctx, msgACLVerdict, session)
		if err != nil {
			return nil, fmt.Errorf("cluster: awaiting ACL verdicts: %w", err)
		}
		var v aclVerdictBody
		if err := transport.Unmarshal(msg.Payload, &v); err != nil {
			return nil, err
		}
		report.Verdicts[msg.From] = ACLVerdict{OK: v.OK, OwnSize: v.OwnSize, CommonSize: v.CommonSize, Error: v.Error}
	}
	for _, v := range report.Verdicts {
		if !v.OK {
			report.Consistent = false
		}
	}
	return report, nil
}

// serveACLCheck answers consistency rounds started by other nodes.
func (n *Node) serveACLCheck(ctx context.Context) {
	for {
		msg, err := n.mb.ExpectType(ctx, msgACLExec)
		if err != nil {
			return
		}
		var body aclExecBody
		if err := transport.Unmarshal(msg.Payload, &body); err != nil {
			continue
		}
		n.wg.Add(1)
		go func(session, initiator string) {
			defer n.wg.Done()
			verdict := n.runACLIntersection(ctx, session)
			out := aclVerdictBody{OK: verdict.OK, OwnSize: verdict.OwnSize, CommonSize: verdict.CommonSize, Error: verdict.Error}
			n.mb.SendBody(ctx, initiator, msgACLVerdict, session, out) //nolint:errcheck
		}(msg.Session, body.Initiator)
	}
}

// wireACLReport is the serialized form of an ACLReport.
type wireACLReport struct {
	Consistent bool                  `json:"consistent"`
	Verdicts   map[string]ACLVerdict `json:"verdicts"`
	Error      string                `json:"error,omitempty"`
}

// serveACLRequests answers client-triggered consistency rounds.
func (n *Node) serveACLRequests(ctx context.Context) {
	for {
		msg, err := n.mb.ExpectType(ctx, MsgACLRequest)
		if err != nil {
			return
		}
		n.wg.Add(1)
		go func(msg transport.Message) {
			defer n.wg.Done()
			var resp wireACLReport
			report, err := n.ACLConsistencyCheck(ctx)
			if err != nil {
				resp.Error = err.Error()
			} else {
				resp.Consistent = report.Consistent
				resp.Verdicts = report.Verdicts
			}
			n.mb.SendBody(ctx, msg.From, MsgACLReport, msg.Session, resp) //nolint:errcheck
		}(msg)
	}
}

// RequestACLCheck asks a node to run a cluster-wide ACL consistency
// round and returns its report (client side).
func RequestACLCheck(ctx context.Context, mb *transport.Mailbox, node, session string) (*ACLReport, error) {
	if err := mb.SendBody(ctx, node, MsgACLRequest, session, struct{}{}); err != nil {
		return nil, err
	}
	resp, err := mb.Expect(ctx, MsgACLReport, session)
	if err != nil {
		return nil, fmt.Errorf("cluster: awaiting ACL report: %w", err)
	}
	var body wireACLReport
	if err := transport.Unmarshal(resp.Payload, &body); err != nil {
		return nil, err
	}
	if body.Error != "" {
		return nil, fmt.Errorf("cluster: node refused ACL check: %s", body.Error)
	}
	return &ACLReport{Consistent: body.Consistent, Verdicts: body.Verdicts}, nil
}

// runACLIntersection contributes this node's ACL elements to the ∩s
// round and compares the common set with its own.
func (n *Node) runACLIntersection(ctx context.Context, session string) ACLVerdict {
	elems := n.acl.ConsistencyElements()
	cfg := intersect.Config{
		Group:     n.group,
		Ring:      n.roster,
		Receivers: n.roster, // every node verifies its own table
		Session:   session + "/ix",
	}
	res, err := intersect.Run(ctx, n.mb, cfg, elems)
	if err != nil {
		return ACLVerdict{Error: err.Error(), OwnSize: len(elems)}
	}
	return ACLVerdict{
		OK:         len(res.Plaintext) == len(elems),
		OwnSize:    len(elems),
		CommonSize: len(res.Plaintext),
	}
}
