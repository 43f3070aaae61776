package audit

import (
	"fmt"
	"slices"
	"strings"

	"confaudit/internal/logmodel"
	"confaudit/internal/resilience"
)

// Degraded-mode query execution. When the coordinator's failure
// detector reports dead roster nodes, dispatching a plan that involves
// one of them would hang until the query timeout. Instead the
// coordinator culls those subqueries up front: the remaining plans run
// over the survivors and the auditor receives the partial glsn list
// together with the clauses that could not be answered, as a typed
// PartialResultError. Clauses whose every involved node is alive are
// unaffected, so queries that never touch a dead node stay exact.

// HealthViewer is implemented by cluster nodes running a failure
// detector; the coordinator consults it to degrade plans. NodeState
// implementations without one (tests, single-node tools) simply never
// degrade.
type HealthViewer interface {
	HealthView() resilience.HealthView
}

// PartialResultError reports a query that completed in degraded mode.
// GLSNs is the conjunction over the answerable clauses only — a
// superset of the exact answer — and Unanswerable names the clauses
// whose evaluation required a dead node. Quarantined names glsn extents
// a participating node's storage recovery refused to serve (CRC or
// accumulator-checkpoint mismatch): records in those extents may be
// missing from the answer even though every clause was evaluated.
type PartialResultError struct {
	GLSNs        []logmodel.GLSN
	Unanswerable []string
	Dead         []string
	Quarantined  []string
}

func (e *PartialResultError) Error() string {
	msg := "audit: partial result"
	if len(e.Unanswerable) > 0 {
		msg += fmt.Sprintf(": unanswerable clauses [%s] (dead nodes: %s)",
			strings.Join(e.Unanswerable, "; "), strings.Join(e.Dead, ", "))
	}
	if len(e.Quarantined) > 0 {
		msg += fmt.Sprintf(": quarantined storage [%s]", strings.Join(e.Quarantined, "; "))
	}
	return msg
}

// degradePlans splits plans into those executable with the given nodes
// dead and the clauses of those that are not. Plans over the whole
// roster ("*") shrink to the survivors; cross-node predicate plans whose
// blind TTP died are re-pointed at a live third node; any plan whose
// holder died is unanswerable.
func degradePlans(plans []wirePlan, roster, dead []string) (live []wirePlan, unanswerable []string) {
	deadSet := make(map[string]struct{}, len(dead))
	for _, d := range dead {
		deadSet[d] = struct{}{}
	}
	survivors := liveRoster(roster, dead)
	for _, p := range plans {
		if p.Kind == kindAll {
			// "*" intersects every node's glsn set; survivors still hold
			// every record's fragment, so the survivor intersection is
			// exact.
			var alive []string
			for _, n := range p.Nodes {
				if _, ok := deadSet[n]; !ok {
					alive = append(alive, n)
				}
			}
			if len(alive) == 0 {
				unanswerable = append(unanswerable, p.Clause)
				continue
			}
			p.Nodes = alive
			live = append(live, p)
			continue
		}
		holderDead := false
		for _, n := range p.Nodes {
			if _, ok := deadSet[n]; ok {
				holderDead = true
				break
			}
		}
		if holderDead {
			// The dead node holds attribute values no one else has; the
			// clause cannot be evaluated without it.
			unanswerable = append(unanswerable, p.Clause)
			continue
		}
		if p.TTP != "" {
			if _, ok := deadSet[p.TTP]; ok {
				ttp := pickTTP(survivors, p.Nodes)
				if ttp == "" {
					unanswerable = append(unanswerable, p.Clause)
					continue
				}
				p.TTP = ttp
			}
		}
		live = append(live, p)
	}
	return live, unanswerable
}

// liveRoster is roster without the dead nodes, in roster order.
func liveRoster(roster, dead []string) []string {
	return slices.DeleteFunc(slices.Clone(roster), func(n string) bool { return slices.Contains(dead, n) })
}
