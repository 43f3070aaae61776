package audit

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"math/big"
	"math/rand/v2"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"confaudit/internal/logmodel"
	"confaudit/internal/metrics"
	"confaudit/internal/query"
	"confaudit/internal/smc"
	"confaudit/internal/smc/compare"
	"confaudit/internal/smc/intersect"
	"confaudit/internal/smc/union"
	"confaudit/internal/telemetry"
	"confaudit/internal/ticket"
	"confaudit/internal/transport"
	"confaudit/internal/wire"
)

// errQueryFailed classifies replies that carry only a rendered error
// string; the span records the coarse class, never the text.
var errQueryFailed = fmt.Errorf("audit: query failed")

// queryTimeout bounds one distributed query execution end to end.
const queryTimeout = 2 * time.Minute

// cmpMaxAbs bounds the absolute value of order-encoded attributes in
// cross comparisons. Every int64 in units of microUnits is below it:
// 2^63 · 10^6 < 2^63 · 2^20.
var (
	microUnits = big.NewInt(1_000_000)
	cmpMaxAbs  = new(big.Int).Lsh(big.NewInt(1), 83)
)

// Serve runs the node-side audit service: a coordinator loop accepting
// auditor queries and an executor loop joining distributed plans. It
// blocks until ctx is cancelled or the mailbox closes, and until every
// query and plan handler it started has returned.
func Serve(ctx context.Context, node NodeState) {
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		serveLoop(ctx, node, MsgQuery, handleQuery, &wg)
	}()
	go func() {
		defer wg.Done()
		serveLoop(ctx, node, MsgExec, handleExec, &wg)
	}()
	wg.Wait()
}

// serveLoop hands every message of type typ to its own handler
// goroutine, counted on wg.
func serveLoop(ctx context.Context, node NodeState, typ string, handle func(context.Context, NodeState, transport.Message), wg *sync.WaitGroup) {
	mb := node.Mailbox()
	for {
		msg, err := mb.ExpectType(ctx, typ)
		if err != nil {
			return
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			handle(ctx, node, msg)
		}()
	}
}

// handleQuery is the coordinator role for one query.
func handleQuery(ctx context.Context, node NodeState, msg transport.Message) {
	ctx, cancel := context.WithTimeout(ctx, queryTimeout)
	defer cancel()
	mb := node.Mailbox()
	start := time.Now()
	// The auditor's submit span (if any) is the remote parent, so the
	// coordinator's tree stitches under the client's in a merged trace.
	ctx = telemetry.WithRemoteParent(ctx, msg.TraceSpan)
	qsp, ctx := telemetry.StartSpan(ctx, msg.Session, node.ID(), "audit.query")
	qsp.SetPeer(msg.From)
	reply := func(res resultBody) {
		telemetry.M.Histogram(telemetry.HistAuditQuery).Observe(time.Since(start))
		if res.Error != "" {
			qsp.End(errQueryFailed)
		} else {
			qsp.SetCount(len(res.GLSNs)).End(nil)
			recordResultDisclosures(msg.From, msg.Session, node.ID(), &res)
		}
		mb.SendBody(ctx, msg.From, MsgResult, msg.Session, res) //nolint:errcheck // auditor timeout covers loss
	}

	var body queryBody
	if err := transport.Unmarshal(msg.Payload, &body); err != nil {
		reply(resultBody{Error: err.Error()})
		return
	}
	if err := node.TicketAllows(body.TicketID, ticket.OpRead); err != nil {
		reply(resultBody{Error: fmt.Errorf("%w: %v", ErrDenied, err).Error()})
		return
	}
	part := node.Partition()
	psp, _ := telemetry.StartSpan(ctx, msg.Session, node.ID(), "audit.parse_plan")
	planStart := time.Now()
	plans, norm, err := buildPlans(body.Criteria, part)
	telemetry.M.Histogram(telemetry.HistAuditPlan).Since(planStart)
	psp.SetCount(len(plans)).End(err)
	if err != nil {
		reply(resultBody{Error: err.Error()})
		return
	}
	telemetry.M.Counter(telemetry.CtrSubqueries).Add(int64(len(plans)))
	// Score the query's confidentiality at dispatch time: C_auditing
	// (eq. 11) exactly from the normalized criterion, C_query (eq. 12)
	// against the full-schema C_store estimate — the record-independent
	// stand-in available before any record is matched. The querier's
	// ledger accumulates the spend and trips the leak alarm when a
	// configured budget is exceeded.
	cAud := 0.0
	if norm != nil {
		cAud = metrics.Auditing(norm, part)
	}
	telemetry.L.RecordQuery(msg.From, msg.Session, cAud, cAud*metrics.StoreFullSchema(part))
	// Degraded mode: cull subqueries that cannot complete because a node
	// they involve is dead, so the query answers over the survivors
	// instead of hanging until the timeout.
	var unanswerable, deadNodes []string
	if hv, ok := node.(HealthViewer); ok {
		if dead := hv.HealthView().Dead(); len(dead) > 0 {
			deadNodes = dead
			plans, unanswerable = degradePlans(plans, part.Nodes(), dead)
			outcome := "ok"
			if len(unanswerable) > 0 {
				outcome = "partial"
			}
			telemetry.F.Record(telemetry.FlightEvent{
				Kind: telemetry.FlightDegraded, Node: node.ID(), Peer: dead[0],
				Count: len(unanswerable), Outcome: outcome,
			})
		}
	}
	exec := execBody{
		Plans:       plans,
		Coordinator: node.ID(),
		Querier:     msg.From,
	}
	if body.AggKind != "" {
		switch body.AggKind {
		case AggCount, AggSum, AggMax, AggMin, AggAvg:
		default:
			reply(resultBody{Error: fmt.Sprintf("audit: unknown aggregate %q", body.AggKind)})
			return
		}
		if len(unanswerable) > 0 {
			// A partial match set would silently skew the statistic;
			// refuse rather than mislead.
			reply(resultBody{Error: fmt.Sprintf(
				"audit: aggregate unavailable in degraded mode: unanswerable clauses %q (dead nodes: %s)",
				unanswerable, strings.Join(deadNodes, ", "))})
			return
		}
		exec.AggKind = body.AggKind
		exec.AggAttr = body.AggAttr
		if body.AggKind != AggCount {
			owner := part.Owner(body.AggAttr)
			if owner == "" {
				reply(resultBody{Error: fmt.Sprintf("audit: aggregate attribute %q not supported by any node", body.AggAttr)})
				return
			}
			if smc.Contains(deadNodes, owner) {
				reply(resultBody{Error: fmt.Sprintf("audit: aggregate attribute %q held by dead node %s", body.AggAttr, owner)})
				return
			}
			exec.AggOwner = owner
		}
	}
	if len(plans) == 0 {
		// Every clause involved a dead node; nothing to dispatch.
		reply(resultBody{Unanswerable: unanswerable, Dead: deadNodes})
		return
	}
	// Final conjunction ring: one responsible node per subquery.
	ringSet := make(map[string]struct{})
	for i := range plans {
		ringSet[plans[i].responsible()] = struct{}{}
	}
	exec.FinalRing = make([]string, 0, len(ringSet))
	for n := range ringSet {
		exec.FinalRing = append(exec.FinalRing, n)
	}
	sort.Strings(exec.FinalRing)
	exec.FinalReceiver = exec.FinalRing[0]
	if len(exec.FinalRing) > 1 {
		// The conjunction runs through a live node outside the ring; a
		// ring that is the whole live roster has none and runs ∩s.
		exec.FinalTTP = pickTTP(liveRoster(part.Nodes(), deadNodes), exec.FinalRing)
	}

	// Dispatch to every involved node.
	involved := make(map[string]struct{})
	for i := range plans {
		for _, n := range plans[i].involved() {
			involved[n] = struct{}{}
		}
	}
	for _, n := range []string{exec.AggOwner, exec.FinalTTP} {
		if n != "" {
			involved[n] = struct{}{}
		}
	}
	// Dispatch concurrently: one slow or unreachable node must not delay
	// the others' plan start. The channel is buffered to the fan-out so
	// a fail-fast return leaks no goroutine.
	dsp, dctx := telemetry.StartSpan(ctx, msg.Session, node.ID(), "audit.dispatch")
	dsp.SetCount(len(involved))
	dispatchStart := time.Now()
	dispatchErr := make(chan error, len(involved))
	for n := range involved {
		go func(n string) {
			// dctx carries the dispatch span, so each executor's exec
			// tree stitches under it in the merged cluster trace.
			dispatchErr <- mb.SendBody(dctx, n, MsgExec, msg.Session, exec)
		}(n)
	}
	for range involved {
		if err := <-dispatchErr; err != nil {
			telemetry.M.Histogram(telemetry.HistAuditDispatch).Since(dispatchStart)
			dsp.End(err)
			reply(resultBody{Error: err.Error()})
			return
		}
	}
	telemetry.M.Histogram(telemetry.HistAuditDispatch).Since(dispatchStart)
	dsp.End(nil)

	// Await the final verdict (or the first reported error) and relay.
	fin, err := mb.Expect(ctx, MsgFinal, msg.Session)
	if err != nil {
		reply(resultBody{Error: fmt.Sprintf("audit: query timed out or failed: %v", err)})
		return
	}
	var final finalBody
	if err := transport.Unmarshal(fin.Payload, &final); err != nil {
		reply(resultBody{Error: err.Error()})
		return
	}
	if final.Error != "" {
		reply(resultBody{Error: final.Error})
		return
	}
	// Fold in quarantined storage: the ring's reports plus the
	// coordinator's own (it may not sit in the final ring).
	quarantined := mergeQuarantine(final.Quarantined, quarantineOf(node))
	if final.IsAgg {
		if len(quarantined) > 0 {
			// An aggregate over history with quarantined extents would
			// silently under-count; refuse rather than mislead, mirroring
			// the degraded-mode refusal.
			reply(resultBody{Error: fmt.Sprintf(
				"audit: aggregate unavailable: quarantined storage [%s]",
				strings.Join(quarantined, "; "))})
			return
		}
		reply(resultBody{Agg: final.Agg})
		return
	}
	reply(resultBody{GLSNs: final.GLSNs, Cert: final.Cert, Unanswerable: unanswerable, Dead: deadNodes, Quarantined: quarantined})
}

// mergeQuarantine unions quarantine reports, deduplicated and sorted.
func mergeQuarantine(lists ...[]string) []string {
	seen := make(map[string]struct{})
	var out []string
	for _, l := range lists {
		for _, q := range l {
			if _, ok := seen[q]; ok {
				continue
			}
			seen[q] = struct{}{}
			out = append(out, q)
		}
	}
	sort.Strings(out)
	return out
}

// recordResultDisclosures files the secondary information a completed
// query reveals to the auditor: the result count and, for glsn results,
// the extent (max−min+1) of the matched glsn range. Counts and
// orderings only — never record contents.
func recordResultDisclosures(querier, session, self string, res *resultBody) {
	gs := res.GLSNs
	telemetry.L.RecordDisclosure(querier, session, self,
		telemetry.DiscResultCount, "", int64(len(gs)))
	if len(gs) > 0 {
		telemetry.L.RecordDisclosure(querier, session, self,
			telemetry.DiscGLSNExtent, "", int64(gs[len(gs)-1]-gs[0])+1)
	}
}

// handleExec is one node's participation in a distributed plan. Only a
// partition node coordinating a query it admitted dispatches plans, so
// an exec is dropped unless its sender is a partition node naming
// itself coordinator on behalf of a querier: the final glsns go to the
// coordinator, and a stranger must not be able to name itself one.
func handleExec(ctx context.Context, node NodeState, msg transport.Message) {
	ctx, cancel := context.WithTimeout(ctx, queryTimeout)
	defer cancel()
	// Stitch this node's exec tree under the coordinator's dispatch span.
	ctx = telemetry.WithRemoteParent(ctx, msg.TraceSpan)
	var body execBody
	if err := transport.Unmarshal(msg.Payload, &body); err != nil {
		return
	}
	if body.Coordinator != msg.From || body.Querier == "" || !smc.Contains(node.Partition().Nodes(), msg.From) {
		return
	}
	if err := execute(ctx, node, msg.Session, &body); err != nil {
		// Report the failure to the coordinator so the auditor gets a
		// verdict instead of a timeout.
		fail := finalBody{Error: err.Error()}
		node.Mailbox().SendBody(ctx, body.Coordinator, MsgFinal, msg.Session, fail) //nolint:errcheck
	}
}

// execute runs every role this node has in the plan, in ascending plan
// order (the global order that keeps multi-node subprotocols free of
// cross-plan deadlock).
func execute(ctx context.Context, node NodeState, session string, body *execBody) (err error) {
	self := node.ID()
	mb := node.Mailbox()
	defer telemetry.M.Histogram(telemetry.HistAuditExec).Since(time.Now())
	esp, ctx := telemetry.StartSpan(ctx, session, self, "audit.exec")
	defer func() { esp.End(err) }()

	// mySets holds the glsn sets this node is responsible for.
	var mySets [][]logmodel.GLSN
	ranPlan := false
	for i := range body.Plans {
		plan := &body.Plans[i]
		if !smc.Contains(plan.involved(), self) {
			continue
		}
		ranPlan = true
		// The subquery span is named by plan kind and filed under the
		// /sqN sub-session — index and kind only, never the clause.
		sqSp, sqCtx := telemetry.StartSpan(ctx,
			plan.subSession(session), self, "audit.subquery."+string(plan.Kind))
		set, responsible, err := executePlan(sqCtx, node, session, body.Querier, plan)
		sqSp.SetCount(len(set)).End(err)
		if err != nil {
			return fmt.Errorf("subquery %d (%s): %w", plan.Index, plan.Kind, err)
		}
		if responsible {
			// The responsible holder learned this subquery's result-set
			// cardinality — Definition 1 secondary information, charged
			// to the querier's ledger.
			telemetry.L.RecordDisclosure(body.Querier, session, self,
				telemetry.DiscSetCardinality, string(plan.Kind), int64(len(set)))
			mySets = append(mySets, set)
		}
	}

	inFinalRing := smc.Contains(body.FinalRing, self)
	var finalSet []logmodel.GLSN
	if inFinalRing {
		// Conjunction of this node's own subquery results. Every ring
		// member receives the final set so it can countersign the
		// result (trusted auditing via majority certification).
		finalSet = intersectAll(mySets)
		if len(body.FinalRing) > 1 {
			if finalSet, err = finalConjunction(ctx, node, session, body, finalSet); err != nil {
				return fmt.Errorf("final conjunction: %w", err)
			}
			// Every ring member receives the intersection, so each one
			// learned its size.
			telemetry.L.RecordDisclosure(body.Querier, session, self,
				telemetry.DiscIntersection, "", int64(len(finalSet)))
		}
	} else if self == body.FinalTTP {
		if err := serveTTP(ctx, node, session, body.Querier, "", finalTTPConfig(session, body)); err != nil {
			return fmt.Errorf("final conjunction: %w", err)
		}
	}

	// Result certification: every ring node signs the digest of the
	// final glsn list; non-receivers ship their signatures to the
	// receiver, which assembles the certificate. The signature message
	// piggybacks each node's quarantined storage extents, so a node that
	// came up degraded taints the result with exactly the glsn ranges it
	// could not serve.
	var cert *ResultCert
	var quar []string
	if inFinalRing {
		sig := node.Sign(certStatement(session, finalSet))
		if self != body.FinalReceiver {
			if err := mb.SendBody(ctx, body.FinalReceiver, MsgSig, session, sigBody{Sig: sig, Quarantined: quarantineOf(node)}); err != nil {
				return err
			}
		} else {
			quar = append(quar, quarantineOf(node)...)
			cert = &ResultCert{
				Ring: append([]string(nil), body.FinalRing...),
				Sigs: map[string][]byte{self: sig},
			}
			// Collect until every ring signature AND every involved
			// node's quarantine report is in: nodes outside the ring
			// still contributed subquery answers (e.g. the wildcard glsn
			// intersection), so a degraded one silently shrinks the
			// result unless its extents ride back here too.
			reporters := planReporters(body.Plans)
			seen := map[string]bool{self: true}
			for len(cert.Sigs) < len(body.FinalRing) || len(seen) < len(reporters) {
				msg, err := mb.Expect(ctx, MsgSig, session)
				if err != nil {
					return fmt.Errorf("collecting result signatures: %w", err)
				}
				if !smc.Contains(reporters, msg.From) {
					continue
				}
				var sb sigBody
				if err := transport.Unmarshal(msg.Payload, &sb); err != nil {
					return err
				}
				if smc.Contains(body.FinalRing, msg.From) && sb.Sig != nil {
					cert.Sigs[msg.From] = sb.Sig
				}
				if !seen[msg.From] {
					seen[msg.From] = true
					quar = append(quar, sb.Quarantined...)
				}
			}
			sort.Strings(quar)
		}
	} else if ranPlan {
		// Involved but outside the certification ring: report this
		// node's quarantined extents to the receiver (always, even when
		// empty — the receiver counts one report per involved node).
		if err := mb.SendBody(ctx, body.FinalReceiver, MsgSig, session, sigBody{Quarantined: quarantineOf(node)}); err != nil {
			return err
		}
	}

	// Result delivery.
	if self == body.FinalReceiver {
		switch {
		case body.AggKind == AggCount:
			return mb.SendBody(ctx, body.Coordinator, MsgFinal, session, finalBody{IsAgg: true, Agg: float64(len(finalSet)), Quarantined: quar})
		case body.AggKind != "":
			if self == body.AggOwner {
				val, err := computeAggregate(node, body.AggKind, body.AggAttr, finalSet)
				if err != nil {
					return err
				}
				return mb.SendBody(ctx, body.Coordinator, MsgFinal, session, finalBody{IsAgg: true, Agg: val, Quarantined: quar})
			}
			return mb.SendBody(ctx, body.AggOwner, MsgAggReq, session, finalBody{GLSNs: finalSet, Quarantined: quar})
		default:
			return mb.SendBody(ctx, body.Coordinator, MsgFinal, session, finalBody{GLSNs: finalSet, Cert: cert, Quarantined: quar})
		}
	}

	// Aggregate owner that is not the final receiver: await the matched
	// glsn set and fold the aggregate.
	if body.AggKind != "" && body.AggKind != AggCount && self == body.AggOwner {
		msg, err := mb.Expect(ctx, MsgAggReq, session)
		if err != nil {
			return fmt.Errorf("awaiting aggregate request: %w", err)
		}
		var req finalBody
		if err := transport.Unmarshal(msg.Payload, &req); err != nil {
			return err
		}
		val, err := computeAggregate(node, body.AggKind, body.AggAttr, req.GLSNs)
		if err != nil {
			return err
		}
		// The owner folds the aggregate over its own store, so its own
		// quarantine taints the value alongside whatever the receiver
		// already collected.
		return mb.SendBody(ctx, body.Coordinator, MsgFinal, session, finalBody{
			IsAgg: true, Agg: val,
			Quarantined: mergeQuarantine(req.Quarantined, quarantineOf(node)),
		})
	}
	return nil
}

// finalConjunction intersects a final ring member's set, mine, with
// every other member's. With a TTP each member submits one keyed tag
// per glsn, over its 8-byte big-endian encoding, and maps the TTP's
// positions back into mine alone, so no member can be handed a glsn it
// does not hold. A ring that is the whole live roster runs ∩s.
func finalConjunction(ctx context.Context, node NodeState, session string, body *execBody, mine []logmodel.GLSN) ([]logmodel.GLSN, error) {
	mb := node.Mailbox()
	if body.FinalTTP == "" {
		cfg := intersect.Config{
			Group:     node.Group(),
			Ring:      body.FinalRing,
			Receivers: body.FinalRing,
			Session:   session + "/final",
		}
		res, err := intersect.Run(ctx, mb, cfg, ringElems(mine))
		if err != nil {
			return nil, err
		}
		return plaintextSet(res.Plaintext)
	}
	slab := make([]byte, 0, 8*len(mine))
	elems := make([][]byte, len(mine))
	for i, g := range mine {
		slab = binary.BigEndian.AppendUint64(slab, uint64(g))
		elems[i] = slab[len(slab)-8:]
	}
	common, err := compare.Intersect(ctx, mb, finalTTPConfig(session, body), elems)
	if err != nil {
		return nil, err
	}
	out := make([]logmodel.GLSN, len(common))
	for n, i := range common {
		out[n] = mine[i]
	}
	return out, nil
}

// finalTTPConfig is the final conjunction's run through body.FinalTTP.
func finalTTPConfig(session string, body *execBody) compare.IntersectConfig {
	return compare.IntersectConfig{
		Members:   body.FinalRing,
		Receivers: body.FinalRing,
		TTP:       body.FinalTTP,
		Session:   session + "/final",
	}
}

// serveTTP runs this node's blind-TTP side of one compare.Intersect
// run and files what it saw in querier's ledger under plan: each
// member's set size under the member's ID and the common count under
// its own, never an element.
func serveTTP(ctx context.Context, node NodeState, session, querier, plan string, cfg compare.IntersectConfig) error {
	sizes, common, err := compare.ServeIntersect(ctx, node.Mailbox(), cfg)
	if err != nil {
		return err
	}
	for i, m := range cfg.Members {
		telemetry.L.RecordDisclosure(querier, session, m, telemetry.DiscTTPOverlap, plan, int64(sizes[i]))
	}
	telemetry.L.RecordDisclosure(querier, session, node.ID(), telemetry.DiscTTPOverlap, plan, int64(common))
	return nil
}

// planReporters is the union of every plan's involved nodes — the set
// the final receiver expects exactly one quarantine report (or ring
// signature) from. Derived from the dispatched plans on both sides so
// sender and collector always agree. The aggregate owner is excluded:
// when it sits outside every plan it never runs the plan loop, and its
// quarantine is merged on the MsgAggReq path instead.
func planReporters(plans []wirePlan) []string {
	set := make(map[string]struct{})
	for i := range plans {
		for _, n := range plans[i].involved() {
			set[n] = struct{}{}
		}
	}
	out := make([]string, 0, len(set))
	for n := range set {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// executePlan runs one subquery role of query session on behalf of
// querier. It returns the resulting glsn set and whether this node is
// the set's responsible holder.
func executePlan(ctx context.Context, node NodeState, session, querier string, plan *wirePlan) ([]logmodel.GLSN, bool, error) {
	self := node.ID()
	sqSession := plan.subSession(session)
	responsible := plan.responsible() == self

	switch plan.Kind {
	case kindAll:
		set := node.GLSNs()
		if len(plan.Nodes) == 1 {
			return set, responsible, nil
		}
		cfg := intersect.Config{
			Group:     node.Group(),
			Ring:      plan.Nodes,
			Receivers: []string{plan.responsible()},
			Session:   sqSession,
		}
		res, err := intersect.Run(ctx, node.Mailbox(), cfg, ringElems(set))
		if err != nil || !responsible {
			return nil, false, err
		}
		out, err := plaintextSet(res.Plaintext)
		return out, true, err

	case kindLocal:
		clause, err := parseClause(plan.Clause)
		if err != nil {
			return nil, false, err
		}
		set, err := evalClauseLocal(node, clause)
		return set, responsible, err

	case kindCrossUnion:
		clause, err := parseClause(plan.Clause)
		if err != nil {
			return nil, false, err
		}
		sub := subClauseForNode(clause, node.Partition(), self)
		local, err := evalClauseLocal(node, sub)
		if err != nil {
			return nil, false, err
		}
		if len(plan.Nodes) == 2 {
			return unionOfTwo(ctx, node, session, querier, plan, local)
		}
		cfg := union.Config{
			Group:     node.Group(),
			Ring:      plan.Nodes,
			Receivers: []string{plan.responsible()},
			Session:   sqSession,
		}
		res, err := union.Run(ctx, node.Mailbox(), cfg, ringElems(local))
		if err != nil || !responsible {
			return nil, false, err
		}
		set, err := plaintextSet(res)
		return set, true, err

	case kindCrossEq, kindCrossCmp:
		return executeCross(ctx, node, session, querier, plan)

	default:
		return nil, false, fmt.Errorf("%w: plan kind %q", ErrUnsupported, plan.Kind)
	}
}

// unionOfTwo is a two-member union. ∪s hides which member holds each
// element, but its only receiver, the responsible member, runs the
// collector's role, which learns the other member's whole set: its
// shared elements by matching the collected ciphertexts against its
// own, the rest as the union minus its own set. So the other member
// sends its set straight to the responsible member (audit.union), which
// accepts it only from that member, files its size in querier's ledger
// and merges it with its own set.
func unionOfTwo(ctx context.Context, node NodeState, session, querier string, plan *wirePlan, local []logmodel.GLSN) ([]logmodel.GLSN, bool, error) {
	mb := node.Mailbox()
	sqSession := plan.subSession(session)
	responsible, other := plan.Nodes[0], plan.Nodes[1]
	if node.ID() != responsible {
		return nil, false, mb.SendBody(ctx, responsible, MsgUnion, sqSession, local)
	}
	msg, err := mb.ExpectFrom(ctx, other, MsgUnion, sqSession)
	if err != nil {
		return nil, false, fmt.Errorf("awaiting %s's set: %w", other, err)
	}
	var theirs []logmodel.GLSN
	if err := transport.Unmarshal(msg.Payload, &theirs); err != nil {
		return nil, false, err
	}
	telemetry.L.RecordDisclosure(querier, session, other,
		telemetry.DiscMemberSet, string(plan.Kind), int64(len(theirs)))
	set := slices.Concat(local, theirs)
	slices.Sort(set)
	return slices.Compact(set), true, nil
}

// ringElems renders a glsn set as ring elements, each glsn's hex text,
// in a random order. A ring pass keeps the order it is given, and a
// receiver learns where each match sits in every member's set: in glsn
// order, that would be the match's rank among the member's glsns.
func ringElems(set []logmodel.GLSN) [][]byte {
	elems := make([][]byte, len(set))
	for i, g := range set {
		elems[i] = []byte(g.String())
	}
	rand.Shuffle(len(elems), func(i, j int) { elems[i], elems[j] = elems[j], elems[i] })
	return elems
}

// plaintextSet maps the plaintexts a ring hands back, each a glsn's hex
// text, to a glsn set.
func plaintextSet(elems [][]byte) ([]logmodel.GLSN, error) {
	set := make([]logmodel.GLSN, 0, len(elems))
	for _, el := range elems {
		g, err := logmodel.ParseGLSN(string(el))
		if err != nil {
			return nil, err
		}
		set = append(set, g)
	}
	slices.Sort(set)
	return slices.Compact(set), nil
}

// executeCross evaluates attrL op attrR across the two nodes holding
// them, through the plan's blind TTP. The holders align their glsns,
// then = and != intersect their (glsn, value) pairs through the TTP
// (compare.Intersect, one keyed tag per pair) and the order operators
// run the batch comparison (one transformed value per glsn). Only the
// responsible holder gets verdicts, and it returns the matching glsns.
// The TTP's view goes in querier's ledger: the TTP files an
// equality's, the responsible holder a comparison's (one sign per
// aligned glsn).
func executeCross(ctx context.Context, node NodeState, querySession, querier string, plan *wirePlan) ([]logmodel.GLSN, bool, error) {
	self := node.ID()
	mb := node.Mailbox()
	session := plan.subSession(querySession)
	clause, err := parseClause(plan.Clause)
	if err != nil {
		return nil, false, err
	}
	pred := clause.Preds[0]
	equality := pred.Op == query.OpEQ || pred.Op == query.OpNE
	part := node.Partition()
	leftOwner := part.Owner(pred.Left.Attr)
	rightOwner := part.Owner(pred.Right.Attr)
	responsible := plan.responsible()
	other := leftOwner
	if other == responsible {
		other = rightOwner
	}
	holders := []string{responsible, other}
	eqCfg := compare.IntersectConfig{
		Members:   holders,
		Receivers: holders[:1],
		TTP:       plan.TTP,
		Session:   session + "/eq",
	}
	cmpCfg := compare.BatchConfig{
		Holders: [2]string(holders),
		TTP:     plan.TTP,
		MaxAbs:  cmpMaxAbs,
		Session: session + "/cmp",
	}
	if self == plan.TTP {
		if equality {
			return nil, false, serveTTP(ctx, node, querySession, querier, string(plan.Kind), eqCfg)
		}
		return nil, false, compare.ServeBatchCompare(ctx, mb, cmpCfg)
	}
	var myAttr logmodel.Attr
	var peer string
	switch self {
	case leftOwner:
		myAttr, peer = pred.Left.Attr, rightOwner
	case rightOwner:
		myAttr, peer = pred.Right.Attr, leftOwner
	default:
		return nil, false, fmt.Errorf("%w: %s not a holder of %s", ErrUnsupported, self, pred)
	}

	// Align keys: exchange ascending glsn lists and keep the glsns both
	// hold, in one merge. glsn lists are "aggregated information" the
	// relaxed model permits to flow between the two holders.
	var glsns []logmodel.GLSN
	var values []logmodel.Value
	err = node.VisitFragments(nil, func(g logmodel.GLSN, vals map[logmodel.Attr]logmodel.Value) error {
		if v, ok := vals[myAttr]; ok {
			glsns = append(glsns, g)
			values = append(values, v)
		}
		return nil
	})
	if err != nil {
		return nil, false, err
	}
	mine := glsnList(glsns)
	if err := mb.SendBody(ctx, peer, MsgKeys, session, &mine); err != nil {
		return nil, false, err
	}
	peerMsg, err := mb.ExpectFrom(ctx, peer, MsgKeys, session)
	if err != nil {
		return nil, false, fmt.Errorf("awaiting key alignment: %w", err)
	}
	var peerGLSNs glsnList
	if err := transport.Unmarshal(peerMsg.Payload, &peerGLSNs); err != nil {
		return nil, false, err
	}
	n := 0
	eachCommon(glsns, peerGLSNs, func(i int) {
		glsns[n], values[n] = glsns[i], values[i]
		n++
	})
	glsns, values = glsns[:n], values[:n]

	var match func(i int) bool
	if equality {
		// One element per aligned glsn: its 8 big-endian bytes, then the
		// value's equality bytes. The glsn's fixed width keeps the
		// elements prefix-free, so a tag binds its glsn and two glsns'
		// elements never match.
		elems := make([][]byte, n)
		for i, v := range values {
			el := binary.BigEndian.AppendUint64(make([]byte, 0, 8+1+8), uint64(glsns[i]))
			if elems[i], err = appendEquality(el, v); err != nil {
				return nil, false, fmt.Errorf("attribute %q: %w", myAttr, err)
			}
		}
		common, err := compare.Intersect(ctx, mb, eqCfg, elems)
		if err != nil || self != responsible {
			return nil, false, err
		}
		equal := make([]bool, n)
		for _, i := range common {
			equal[i] = true
		}
		match = func(i int) bool { return equal[i] == (pred.Op == query.OpEQ) }
	} else {
		keys := make([]string, n)
		enc := make([]*big.Int, n)
		for i, v := range values {
			keys[i] = glsns[i].String()
			if enc[i], err = orderedInt(v); err != nil {
				return nil, false, fmt.Errorf("attribute %q: %w", myAttr, err)
			}
		}
		signs, err := compare.BatchCompare(ctx, mb, cmpCfg, keys, enc)
		if err != nil || self != responsible {
			return nil, false, err
		}
		telemetry.L.RecordDisclosure(querier, querySession, plan.TTP,
			telemetry.DiscTTPVerdicts, string(plan.Kind), int64(n))
		match = func(i int) bool {
			// A sign is responsible vs other: negate it when the
			// responsible holder owns the right operand.
			sign := signs[i]
			if responsible == rightOwner {
				sign = -sign
			}
			return orderSatisfied(pred.Op, sign)
		}
	}
	set := glsns[:0]
	for i, g := range glsns {
		if match(i) {
			set = append(set, g)
		}
	}
	return set, true, nil
}

// orderSatisfied maps a comparison sign (left vs right) onto an order
// operator.
func orderSatisfied(op query.Op, sign int) bool {
	switch op {
	case query.OpLT:
		return sign < 0
	case query.OpLE:
		return sign <= 0
	case query.OpGT:
		return sign > 0
	case query.OpGE:
		return sign >= 0
	default:
		return false
	}
}

// appendEquality appends a value as its cross-node equality tag covers
// it to dst: a class byte, then a string's bytes or a number's
// canonical float64 bits, so two values get the same bytes iff
// logmodel.Compare calls them equal (18 = 18.0, -0 = 0). A string never
// equals a number, where Compare refuses the pair. NaN, which Compare
// calls equal to every number, is refused.
func appendEquality(dst []byte, v logmodel.Value) ([]byte, error) {
	if v.Kind == logmodel.KindString {
		return append(append(dst, 's'), v.S...), nil
	}
	bits, ok := logmodel.NumericKey(v.Kind, v.I, v.F)
	if !ok {
		return nil, fmt.Errorf("%w: equality on NaN or an invalid value", ErrUnsupported)
	}
	return binary.BigEndian.AppendUint64(append(dst, 'n'), bits), nil
}

// orderedInt maps a numeric attribute value to an order-preserving
// integer on one scale for both kinds: the value in units of 10^-6,
// the documented precision of cross-node float comparison. Ints map
// exactly; floats round to the nearest unit. Strings support only
// equality, which the intersection through the TTP evaluates instead.
func orderedInt(v logmodel.Value) (*big.Int, error) {
	switch v.Kind {
	case logmodel.KindInt:
		return new(big.Int).Mul(big.NewInt(v.I), microUnits), nil
	case logmodel.KindFloat:
		f := math.Round(v.F * 1e6)
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return nil, fmt.Errorf("%w: order comparison on non-finite value", ErrUnsupported)
		}
		i, _ := new(big.Float).SetFloat64(f).Int(nil)
		return i, nil
	default:
		return nil, fmt.Errorf("%w: order comparison on non-numeric value", ErrUnsupported)
	}
}

// clauseCache memoizes parseClause: every node of a plan re-parses the
// same rendered clause, and the audit hot path re-parses it per query.
// Cached clauses are treated as read-only by all callers.
var clauseCache sync.Map // string -> query.Clause

// parseClause re-parses a clause rendered by query.Clause.String. The
// rendering is itself valid criteria syntax, so Parse∘Normalize yields
// one clause back.
func parseClause(src string) (query.Clause, error) {
	if c, ok := clauseCache.Load(src); ok {
		return c.(query.Clause), nil
	}
	if src == "*" {
		return query.Clause{}, nil
	}
	expr, err := query.Parse(src)
	if err != nil {
		return query.Clause{}, err
	}
	norm, err := query.Normalize(expr)
	if err != nil {
		return query.Clause{}, err
	}
	if len(norm.Clauses) != 1 {
		return query.Clause{}, fmt.Errorf("audit: clause %q re-normalized into %d clauses", src, len(norm.Clauses))
	}
	clauseCache.Store(src, norm.Clauses[0])
	return norm.Clauses[0], nil
}

// AttrIndexer is an optional NodeState capability: a store maintaining
// per-attribute value indexes. IndexLookup returns the glsns whose
// fragment stores exactly v for attr; ok is false when the index cannot
// answer with scan-identical semantics and the caller must fall back to
// the full scan.
type AttrIndexer interface {
	IndexLookup(attr logmodel.Attr, v logmodel.Value) ([]logmodel.GLSN, bool)
}

// evalClauseLocal evaluates a clause over the node's fragments. Pure
// equality conjunctions answer from the store's attribute indexes when
// the node maintains them; everything else — range or cross-attribute
// predicates, or value distributions the index cannot represent
// faithfully — scans every fragment.
func evalClauseLocal(node NodeState, clause query.Clause) ([]logmodel.GLSN, error) {
	if len(clause.Preds) == 0 {
		return nil, nil
	}
	if ix, ok := node.(AttrIndexer); ok {
		if set, ok := evalClauseIndexed(ix, clause); ok {
			return set, nil
		}
	}
	var set []logmodel.GLSN
	err := node.VisitFragments(nil, func(g logmodel.GLSN, values map[logmodel.Attr]logmodel.Value) error {
		match, err := clause.Eval(values)
		if err != nil {
			return err
		}
		if match {
			set = append(set, g)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return set, nil
}

// evalClauseIndexed answers a clause from attribute indexes. It applies
// only when every predicate is an equality between one attribute and
// one constant and every lookup is answerable; the result is then the
// intersection of the per-predicate glsn runs. All lookups run before
// intersecting, so a clause with any unanswerable predicate falls back
// as a whole — the scan reproduces error and cross-class semantics.
func evalClauseIndexed(ix AttrIndexer, clause query.Clause) ([]logmodel.GLSN, bool) {
	runs := make([][]logmodel.GLSN, 0, len(clause.Preds))
	for _, p := range clause.Preds {
		if p.Op != query.OpEQ {
			return nil, false
		}
		var attr logmodel.Attr
		var c logmodel.Value
		switch {
		case p.Left.IsAttr && !p.Right.IsAttr:
			attr, c = p.Left.Attr, p.Right.Const
		case !p.Left.IsAttr && p.Right.IsAttr:
			attr, c = p.Right.Attr, p.Left.Const
		default:
			return nil, false // attr=attr or const=const: scan path
		}
		glsns, ok := ix.IndexLookup(attr, c)
		if !ok {
			return nil, false
		}
		runs = append(runs, glsns)
	}
	return intersectAll(runs), true
}

// subClauseForNode keeps the predicates whose attributes this node owns.
func subClauseForNode(clause query.Clause, part *logmodel.Partition, self string) query.Clause {
	out := query.Clause{}
	for _, p := range clause.Preds {
		ownsAll := true
		for _, a := range p.ReferencedAttrs() {
			if part.Owner(a) != self {
				ownsAll = false
				break
			}
		}
		if ownsAll {
			out.Preds = append(out.Preds, p)
		}
	}
	return out
}

// intersectAll intersects ascending, duplicate-free glsn sets, merging
// each into the first set's array. No sets intersect to the empty set.
func intersectAll(sets [][]logmodel.GLSN) []logmodel.GLSN {
	if len(sets) == 0 {
		return nil
	}
	out := sets[0]
	for _, s := range sets[1:] {
		n := 0
		eachCommon(out, s, func(i int) {
			out[n] = out[i]
			n++
		})
		out = out[:n]
	}
	return out
}

// glsnList is the audit.keys body: a holder's glsns, strictly
// ascending, as wire.AppendAscending writes them, so an aligned list
// costs a byte or two per glsn.
type glsnList []logmodel.GLSN

func (l *glsnList) AppendBinary(dst []byte) []byte { return wire.AppendAscending(dst, *l) }

// DecodeBinary refuses a list that is not strictly ascending, which
// the alignment merge needs.
func (l *glsnList) DecodeBinary(src []byte) error {
	d := wire.NewDec(src)
	list, err := wire.Ascending[logmodel.GLSN](&d, math.MaxUint64)
	if err == nil {
		err = d.Done()
	}
	*l = list
	return err
}

// eachCommon calls keep(i) for each a[i] that b also holds, in one
// merge of the two ascending, duplicate-free glsn lists.
func eachCommon(a, b []logmodel.GLSN, keep func(i int)) {
	for i, j := 0, 0; i < len(a) && j < len(b); {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			keep(i)
			i++
			j++
		}
	}
}
