// Package audit implements the distributed confidential auditing query
// engine of paper §2 and Figure 3.
//
// Flow: an auditor holding a read ticket submits an auditing criterion Q
// to a coordinator DLA node. The coordinator normalizes Q to conjunctive
// form (SQ_1) ∧ ... ∧ (SQ_m), classifies every subquery as local or
// cross, and dispatches an execution plan to the involved nodes. Each
// node evaluates its subqueries:
//
//   - local subqueries directly over its fragment store;
//   - cross equality and inequality predicates (attr_i = attr_j across
//     nodes), §3.2's =s, via a batch intersection through a blind TTP
//     (compare.Intersect): one keyed tag per glsn and value, matched
//     by a third node that sees no glsn;
//   - cross order predicates via the blind-TTP batch comparison of §3.3;
//   - cross disjunctions that decompose per node via secure set union
//     over three or more nodes; over two, the other node sends its set
//     straight to the responsible one, which would learn it from ∪s
//     anyway.
//
// The conjunction of subquery results is then computed keyed by glsn:
// through a blind TTP outside the responsible nodes, one keyed tag per
// glsn (compare.Intersect), or with the paper's secure set intersection
// when those nodes are the whole roster and no third node is left. Only
// the final glsn list reaches the auditor. No DLA node learns another
// node's attribute values, and the auditor sees no raw fragments unless
// separately authorized per glsn.
package audit

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync/atomic"

	"confaudit/internal/logmodel"
	"confaudit/internal/mathx"
	"confaudit/internal/query"
	"confaudit/internal/ticket"
	"confaudit/internal/transport"
)

// Message types of the audit protocol.
const (
	MsgQuery  = "audit.query"
	MsgExec   = "audit.exec"
	MsgKeys   = "audit.keys"
	MsgUnion  = "audit.union"
	MsgAggReq = "audit.aggreq"
	MsgSig    = "audit.sig"
	MsgFinal  = "audit.final"
	MsgResult = "audit.result"
)

// sigBody carries one ring node's result signature, piggybacking the
// glsn extents its storage recovery quarantined (if any) so the final
// receiver can mark the result partial.
type sigBody struct {
	Sig         []byte   `json:"sig"`
	Quarantined []string `json:"quarantined,omitempty"`
}

// Errors reported by the engine.
var (
	// ErrUnsupported indicates a criterion outside the engine's cross-
	// predicate repertoire.
	ErrUnsupported = errors.New("audit: unsupported criteria shape")
	// ErrDenied indicates a ticket without query authority.
	ErrDenied = errors.New("audit: query denied")
	// ErrNoTTP indicates a cross-node predicate with no third node
	// available as its blind TTP.
	ErrNoTTP = errors.New("audit: no third node available as blind TTP")
)

// AggKind selects an aggregate function.
type AggKind string

// Aggregate kinds, the paper's statistics primitives (count/sum/max/min)
// plus the derived average.
const (
	AggCount AggKind = "count"
	AggSum   AggKind = "sum"
	AggMax   AggKind = "max"
	AggMin   AggKind = "min"
	AggAvg   AggKind = "avg"
)

// QuarantineViewer is optionally implemented by NodeState backends
// whose storage recovery can refuse (quarantine) corrupted history.
// Nodes that implement it report the quarantined glsn extents, and the
// audit layer marks results touching them partial. cluster.Node
// implements it; implementations without one never degrade this way.
type QuarantineViewer interface {
	QuarantinedExtents() []string
}

// quarantineOf reads a node's quarantined extents if it exposes them.
func quarantineOf(node NodeState) []string {
	if qv, ok := node.(QuarantineViewer); ok {
		return qv.QuarantinedExtents()
	}
	return nil
}

// NodeState is the cluster-node surface the engine needs; implemented
// by cluster.Node.
type NodeState interface {
	ID() string
	Partition() *logmodel.Partition
	Group() *mathx.Group
	Mailbox() *transport.Mailbox
	GLSNs() []logmodel.GLSN
	fragmentVisitor
	TicketAllows(ticketID string, op ticket.Op) error
	// Sign certifies audit results under the node's cluster key.
	Sign(data []byte) []byte
}

// plan kinds.
type planKind string

const (
	kindLocal      planKind = "local"
	kindAll        planKind = "all"
	kindCrossEq    planKind = "cross-eq"
	kindCrossCmp   planKind = "cross-cmp"
	kindCrossUnion planKind = "cross-union"
)

// wirePlan is one subquery's execution assignment.
type wirePlan struct {
	Index  int      `json:"index"`
	Clause string   `json:"clause"`
	Nodes  []string `json:"nodes"`
	Kind   planKind `json:"kind"`
	TTP    string   `json:"ttp,omitempty"`
}

type queryBody struct {
	TicketID string        `json:"ticket_id"`
	Criteria string        `json:"criteria"`
	AggKind  AggKind       `json:"agg_kind,omitempty"`
	AggAttr  logmodel.Attr `json:"agg_attr,omitempty"`
}

type execBody struct {
	Plans         []wirePlan `json:"plans"`
	FinalRing     []string   `json:"final_ring"`
	FinalReceiver string     `json:"final_receiver"`
	// FinalTTP is the blind TTP of the final conjunction, a live node
	// outside FinalRing; empty when FinalRing runs ∩s instead.
	FinalTTP    string `json:"final_ttp,omitempty"`
	Coordinator string `json:"coordinator"`
	// Querier is the auditor node the coordinator is serving, so
	// executors can attribute the secondary information they disclose
	// to the right leak ledger. Executors drop an exec without one.
	Querier  string        `json:"querier,omitempty"`
	AggKind  AggKind       `json:"agg_kind,omitempty"`
	AggAttr  logmodel.Attr `json:"agg_attr,omitempty"`
	AggOwner string        `json:"agg_owner,omitempty"`
}

type finalBody struct {
	GLSNs []logmodel.GLSN `json:"glsns,omitempty"`
	Agg   float64         `json:"agg,omitempty"`
	IsAgg bool            `json:"is_agg,omitempty"`
	Cert  *ResultCert     `json:"cert,omitempty"`
	Error string          `json:"error,omitempty"`
	// Quarantined aggregates the ring nodes' quarantined storage
	// extents; the coordinator folds it into the result.
	Quarantined []string `json:"quarantined,omitempty"`
}

type resultBody struct {
	GLSNs []logmodel.GLSN `json:"glsns,omitempty"`
	Agg   float64         `json:"agg,omitempty"`
	Cert  *ResultCert     `json:"cert,omitempty"`
	Error string          `json:"error,omitempty"`
	// Unanswerable and Dead mark a degraded-mode result: the clauses
	// that could not be evaluated and the dead nodes responsible.
	Unanswerable []string `json:"unanswerable,omitempty"`
	Dead         []string `json:"dead,omitempty"`
	// Quarantined names glsn extents a participating node's storage
	// recovery refused to serve; records there may be missing from the
	// answer.
	Quarantined []string `json:"quarantined,omitempty"`
}

// buildPlans compiles a criterion into subquery assignments. The
// normalized criterion is returned alongside so the coordinator can
// score C_auditing (eq. 11) for the leak ledger without re-parsing; it
// is nil for the "*" criteria, which has no predicates to score.
func buildPlans(criteria string, part *logmodel.Partition) ([]wirePlan, *query.Normalized, error) {
	roster := part.Nodes()
	if criteria == "*" {
		return []wirePlan{{Index: 0, Clause: "*", Nodes: roster, Kind: kindAll}}, nil, nil
	}
	expr, err := query.Parse(criteria)
	if err != nil {
		return nil, nil, err
	}
	norm, err := query.Normalize(expr)
	if err != nil {
		return nil, nil, err
	}
	sqs, err := query.Classify(norm, part)
	if err != nil {
		return nil, nil, err
	}
	plans := make([]wirePlan, 0, len(sqs))
	for i, sq := range sqs {
		wp := wirePlan{Index: i, Clause: sq.Clause.String(), Nodes: sq.Nodes}
		switch {
		case !sq.Cross:
			wp.Kind = kindLocal
		case len(sq.Clause.Preds) == 1:
			pred := sq.Clause.Preds[0]
			if !pred.Left.IsAttr || !pred.Right.IsAttr {
				return nil, nil, fmt.Errorf("%w: cross predicate %s mixes scopes", ErrUnsupported, pred)
			}
			wp.Kind = kindCrossCmp
			if pred.Op == query.OpEQ || pred.Op == query.OpNE {
				wp.Kind = kindCrossEq
			}
			if wp.TTP = pickTTP(roster, sq.Nodes); wp.TTP == "" {
				return nil, nil, fmt.Errorf("%w: predicate %s", ErrNoTTP, pred)
			}
		default:
			// Every predicate must be evaluable on a single node.
			for _, p := range sq.Clause.Preds {
				owners := make(map[string]struct{})
				for _, a := range p.ReferencedAttrs() {
					owners[part.Owner(a)] = struct{}{}
				}
				if len(owners) > 1 {
					return nil, nil, fmt.Errorf("%w: predicate %s spans nodes inside a disjunction", ErrUnsupported, p)
				}
			}
			wp.Kind = kindCrossUnion
		}
		plans = append(plans, wp)
	}
	return plans, norm, nil
}

// pickTTP chooses a roster node outside the holder pair.
func pickTTP(roster, holders []string) string {
	isHolder := make(map[string]struct{}, len(holders))
	for _, h := range holders {
		isHolder[h] = struct{}{}
	}
	for _, n := range roster {
		if _, ok := isHolder[n]; !ok {
			return n
		}
	}
	return ""
}

// subSession names the plan's sub-protocol runs within query session.
func (p *wirePlan) subSession(session string) string {
	return session + "/sq" + strconv.Itoa(p.Index)
}

// responsible returns the node holding the result of a plan.
func (p *wirePlan) responsible() string { return p.Nodes[0] }

// involved returns every node the plan touches (holders + TTP).
func (p *wirePlan) involved() []string {
	if p.TTP == "" {
		return p.Nodes
	}
	return append(append([]string(nil), p.Nodes...), p.TTP)
}

// Auditor is the query client.
type Auditor struct {
	mb          *transport.Mailbox
	coordinator string
	ticketID    string
	session     atomic.Uint64
}

// NewAuditor builds a client that submits queries to the coordinator
// node under the given ticket.
func NewAuditor(mb *transport.Mailbox, coordinator, ticketID string) *Auditor {
	return &Auditor{mb: mb, coordinator: coordinator, ticketID: ticketID}
}

func (a *Auditor) nextSession() string {
	return "q/" + a.mb.ID() + "/" + strconv.FormatUint(a.session.Add(1), 10)
}

// Query runs an auditing criterion and returns the matching glsns. A
// degraded-mode result returns the partial glsn list together with a
// *PartialResultError (check with errors.As).
func (a *Auditor) Query(ctx context.Context, criteria string) ([]logmodel.GLSN, error) {
	glsns, _, _, err := a.QueryCertified(ctx, criteria)
	return glsns, err
}

// QueryCertified runs an auditing criterion and additionally returns
// the result certificate — signatures by every node responsible for a
// subquery over the digest of the glsn list — and the session it binds.
// Verify with VerifyResult against the cluster's public keys; a single
// compromised responder cannot forge a certified result.
//
// When the cluster has dead nodes, a query touching their attributes
// completes over the survivors and returns the partial glsn list
// alongside a *PartialResultError naming the unanswerable clauses.
func (a *Auditor) QueryCertified(ctx context.Context, criteria string) ([]logmodel.GLSN, string, *ResultCert, error) {
	session := a.nextSession()
	res, err := a.roundTripSession(ctx, session, queryBody{TicketID: a.ticketID, Criteria: criteria})
	if err != nil {
		return nil, "", nil, err
	}
	if len(res.Unanswerable) > 0 || len(res.Quarantined) > 0 {
		return res.GLSNs, session, res.Cert, &PartialResultError{
			GLSNs:        res.GLSNs,
			Unanswerable: res.Unanswerable,
			Dead:         res.Dead,
			Quarantined:  res.Quarantined,
		}
	}
	return res.GLSNs, session, res.Cert, nil
}

// Aggregate runs an auditing criterion and returns an aggregate over the
// named attribute of the matching records — the paper's "number of
// transactions, total of volumes" style of confidential audit result.
func (a *Auditor) Aggregate(ctx context.Context, criteria string, kind AggKind, attr logmodel.Attr) (float64, error) {
	res, err := a.roundTrip(ctx, queryBody{
		TicketID: a.ticketID,
		Criteria: criteria,
		AggKind:  kind,
		AggAttr:  attr,
	})
	if err != nil {
		return 0, err
	}
	return res.Agg, nil
}

func (a *Auditor) roundTrip(ctx context.Context, body queryBody) (*resultBody, error) {
	return a.roundTripSession(ctx, a.nextSession(), body)
}

func (a *Auditor) roundTripSession(ctx context.Context, session string, body queryBody) (*resultBody, error) {
	if err := a.mb.SendBody(ctx, a.coordinator, MsgQuery, session, body); err != nil {
		return nil, fmt.Errorf("audit: submitting query: %w", err)
	}
	resp, err := a.mb.Expect(ctx, MsgResult, session)
	if err != nil {
		return nil, fmt.Errorf("audit: awaiting result: %w", err)
	}
	var res resultBody
	if err := transport.Unmarshal(resp.Payload, &res); err != nil {
		return nil, err
	}
	if res.Error != "" {
		return nil, fmt.Errorf("audit: %s", res.Error)
	}
	return &res, nil
}
