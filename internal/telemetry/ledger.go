package telemetry

import (
	"sort"
	"sync"
)

// Live confidentiality leak ledger. The paper quantifies what a DLA
// deployment is ALLOWED to leak: Definition 1 concedes only secondary
// information (set sizes, counts, orderings), and §5 eqs. 10-13 define
// C_store/C_auditing/C_query/C_DLA to measure how confidential the
// system remains under a query workload. internal/metrics computes
// those measures; this ledger makes them runtime observables: the
// audit coordinator scores every query at dispatch time, every node
// records the concrete secondary information it discloses while
// executing (set cardinalities, result counts, intersection sizes,
// glsn-range extents), and operators read the accumulated per-querier
// ledgers plus a rolling C_DLA estimate from /debug/dla/leaks.
//
// Redaction contract. A ledger entry holds node and querier IDs,
// session keys, fixed kind strings, and numbers — exactly the
// secondary-information vocabulary the span schema is restricted to.
// There is no field an attribute value, clause string, or ciphertext
// could land in.
//
// Leak budgets. Each query's leakage is 1 - C_query: a fully
// confidential query (C_query = 1) spends nothing, a revealing one
// spends up to 1. The process-wide budget (dlad -leak-budget) trips
// the CtrLeakAlarms counter on every query recorded while the
// querier's cumulative spend exceeds it — the differential-privacy
// style accounting loop, applied to the paper's confidentiality
// measure.

// Ledger bounds, mirroring the tracer's FIFO discipline.
const (
	maxQueriers          = 128
	maxEntriesPerQuerier = 256
)

// Disclosure kinds — the fixed vocabulary of what a query reveals.
const (
	// DiscResultCount is the number of glsns in the final result.
	DiscResultCount = "result_count"
	// DiscSetCardinality is one node's subquery result-set size.
	DiscSetCardinality = "set_cardinality"
	// DiscIntersection is the size of a secure-intersection output.
	DiscIntersection = "intersection_size"
	// DiscGLSNExtent is the span (max-min+1) of the matched glsn range.
	DiscGLSNExtent = "glsn_extent"
	// DiscTTPVerdicts is the number of keys a cross-node order
	// predicate's blind TTP judged: one comparison sign per aligned
	// glsn, filed under the TTP's node ID.
	DiscTTPVerdicts = "ttp_verdicts"
	// DiscMemberSet is the size of the set one member of a two-member
	// union sent the responsible member, filed under the sender's node
	// ID: the responsible member learns that set itself.
	DiscMemberSet = "member_set"
	// DiscTTPOverlap is what a blind TTP matching keyed tags sees, for a
	// final conjunction (no plan) or a cross-node equality (plan
	// cross-eq): one entry per member, filed under that member's node
	// ID, with the number of tags it submitted (its set size), and one
	// under the TTP's node ID with the number of tags all members
	// submitted.
	DiscTTPOverlap = "ttp_overlap"
)

// Disclosure is one unit of secondary information a query revealed.
type Disclosure struct {
	Kind string `json:"kind"`           // one of the Disc* constants
	Node string `json:"node,omitempty"` // node that held/produced the set
	Plan string `json:"plan,omitempty"` // subquery plan kind, when per-plan
	N    int64  `json:"n"`
}

// LedgerEntry is one query's confidentiality record.
type LedgerEntry struct {
	Session     string       `json:"session"`
	CAuditing   float64      `json:"c_auditing"`
	CQuery      float64      `json:"c_query"`
	Leakage     float64      `json:"leakage"` // 1 - CQuery
	Disclosures []Disclosure `json:"disclosures,omitempty"`
}

// querierLedger accumulates one querier's history.
type querierLedger struct {
	queries    int64
	sumCAud    float64
	sumCQuery  float64
	leakage    float64
	alarmed    bool
	entries    []LedgerEntry
	entryIndex map[string]int // session -> entries index
	evicted    int            // entries rolled off past maxEntriesPerQuerier
}

// QuerierView is a querier's exported ledger.
type QuerierView struct {
	Querier    string        `json:"querier"`
	Queries    int64         `json:"queries"`
	MeanCAud   float64       `json:"mean_c_auditing"`
	MeanCQuery float64       `json:"mean_c_query"`
	Leakage    float64       `json:"leakage"`
	Budget     float64       `json:"budget,omitempty"`
	Alarmed    bool          `json:"alarmed,omitempty"`
	Entries    []LedgerEntry `json:"entries,omitempty"`
	// EntriesEvicted counts the oldest entries dropped to keep Entries
	// within its per-querier bound; the cumulative counters still
	// include them.
	EntriesEvicted int `json:"entries_evicted,omitempty"`
}

// LedgerSnapshot is the full exported ledger.
type LedgerSnapshot struct {
	Queriers []QuerierView `json:"queriers"`
	// CDLA is the rolling eq. 13 estimate: the mean C_query over every
	// query the ledger has recorded.
	CDLA    float64 `json:"c_dla"`
	Queries int64   `json:"queries"`
}

// Ledger stores bounded per-querier confidentiality ledgers.
type Ledger struct {
	mu            sync.Mutex
	queriers      map[string]*querierLedger
	order         []string // FIFO eviction, mirroring the tracer
	defaultBudget float64
}

// NewLedger creates an empty ledger with no default budget.
func NewLedger() *Ledger {
	return &Ledger{queriers: make(map[string]*querierLedger)}
}

// L is the process-wide default ledger, mirroring M and T.
var L = NewLedger()

// SetDefaultBudget sets the leak budget every querier is held to. Zero
// disables budget checking.
func (l *Ledger) SetDefaultBudget(b float64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.defaultBudget = b
}

// ledger returns (creating, evicting FIFO if needed) a querier's
// ledger. Caller holds l.mu.
func (l *Ledger) ledger(querier string) *querierLedger {
	q, ok := l.queriers[querier]
	if ok {
		return q
	}
	if len(l.order) >= maxQueriers {
		oldest := l.order[0]
		l.order = l.order[1:]
		delete(l.queriers, oldest)
	}
	q = &querierLedger{entryIndex: make(map[string]int)}
	l.queriers[querier] = q
	l.order = append(l.order, querier)
	return q
}

// entry returns (creating if needed) the querier's entry for session.
// Caller holds l.mu.
func (q *querierLedger) entry(session string) *LedgerEntry {
	if i, ok := q.entryIndex[session]; ok {
		return &q.entries[i]
	}
	if len(q.entries) >= maxEntriesPerQuerier {
		old := q.entries[0].Session
		q.entries = q.entries[1:]
		delete(q.entryIndex, old)
		for s, i := range q.entryIndex {
			q.entryIndex[s] = i - 1
		}
		q.evicted++
	}
	q.entries = append(q.entries, LedgerEntry{Session: session})
	q.entryIndex[session] = len(q.entries) - 1
	return &q.entries[len(q.entries)-1]
}

// RecordQuery scores one dispatched query: cAud and cQuery are the
// eq. 11/12 values the coordinator computed for the criterion. The
// querier's cumulative leakage grows by 1-cQuery; if the budget is set
// and exceeded, the CtrLeakAlarms counter trips.
func (l *Ledger) RecordQuery(querier, session string, cAud, cQuery float64) {
	if l == nil || !enabled.Load() || querier == "" {
		return
	}
	l.mu.Lock()
	q := l.ledger(querier)
	e := q.entry(session)
	e.CAuditing, e.CQuery = cAud, cQuery
	e.Leakage = clamp01(1 - cQuery)
	q.queries++
	q.sumCAud += cAud
	q.sumCQuery += cQuery
	q.leakage += e.Leakage
	alarm := l.defaultBudget > 0 && q.leakage > l.defaultBudget
	if alarm {
		q.alarmed = true
	}
	l.mu.Unlock()
	if alarm {
		M.Counter(CtrLeakAlarms).Add(1)
	}
}

// RecordDisclosure appends one disclosed fact (a cardinality, count, or
// extent) to the querier's entry for the session. node is the node that
// produced the set; plan the subquery plan kind, when applicable.
func (l *Ledger) RecordDisclosure(querier, session, node, kind, plan string, n int64) {
	if l == nil || !enabled.Load() || querier == "" {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	e := l.ledger(querier).entry(session)
	e.Disclosures = append(e.Disclosures, Disclosure{Kind: kind, Node: node, Plan: plan, N: n})
}

// clamp01 bounds a leakage term to [0, 1].
func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// Snapshot exports the full ledger.
func (l *Ledger) Snapshot() LedgerSnapshot {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := LedgerSnapshot{}
	var sumCQuery float64
	for _, querier := range l.order {
		q := l.queriers[querier]
		v := QuerierView{
			Querier:        querier,
			Queries:        q.queries,
			Leakage:        q.leakage,
			Budget:         l.defaultBudget,
			Alarmed:        q.alarmed,
			Entries:        append([]LedgerEntry(nil), q.entries...),
			EntriesEvicted: q.evicted,
		}
		if q.queries > 0 {
			v.MeanCAud = q.sumCAud / float64(q.queries)
			v.MeanCQuery = q.sumCQuery / float64(q.queries)
		}
		out.Queriers = append(out.Queriers, v)
		out.Queries += q.queries
		sumCQuery += q.sumCQuery
	}
	sort.Slice(out.Queriers, func(i, j int) bool { return out.Queriers[i].Querier < out.Queriers[j].Querier })
	if out.Queries > 0 {
		out.CDLA = sumCQuery / float64(out.Queries)
	}
	return out
}

// Reset drops every ledger (tests).
func (l *Ledger) Reset() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.queriers = make(map[string]*querierLedger)
	l.order = nil
	l.defaultBudget = 0
}

// MergeLedgers combines per-node ledger snapshots into one cluster
// view: per-querier entries for the same session are unioned (the
// coordinator contributes the C scores, executors the disclosures) and
// counts deduplicated by session so a query is not double-counted.
func MergeLedgers(snaps []LedgerSnapshot) LedgerSnapshot {
	type qacc struct {
		sessions map[string]*LedgerEntry
		order    []string
		budget   float64
		alarmed  bool
		evicted  int
	}
	accs := make(map[string]*qacc)
	var queriers []string
	for _, snap := range snaps {
		for _, q := range snap.Queriers {
			a := accs[q.Querier]
			if a == nil {
				a = &qacc{sessions: make(map[string]*LedgerEntry)}
				accs[q.Querier] = a
				queriers = append(queriers, q.Querier)
			}
			if q.Budget > a.budget {
				a.budget = q.Budget
			}
			a.alarmed = a.alarmed || q.Alarmed
			// Nodes evict independently; each count is a lower bound
			// on what the merged view is missing.
			a.evicted = max(a.evicted, q.EntriesEvicted)
			for _, e := range q.Entries {
				m := a.sessions[e.Session]
				if m == nil {
					cp := e
					cp.Disclosures = append([]Disclosure(nil), e.Disclosures...)
					a.sessions[e.Session] = &cp
					a.order = append(a.order, e.Session)
					continue
				}
				// The coordinator's fragment carries the scores; keep
				// the non-zero ones and union the disclosures.
				if m.CQuery == 0 && e.CQuery != 0 {
					m.CAuditing, m.CQuery, m.Leakage = e.CAuditing, e.CQuery, e.Leakage
				}
				m.Disclosures = append(m.Disclosures, e.Disclosures...)
			}
		}
	}
	sort.Strings(queriers)
	out := LedgerSnapshot{}
	var sumCQuery float64
	for _, querier := range queriers {
		a := accs[querier]
		v := QuerierView{Querier: querier, Budget: a.budget, Alarmed: a.alarmed, EntriesEvicted: a.evicted}
		for _, s := range a.order {
			e := a.sessions[s]
			v.Entries = append(v.Entries, *e)
			v.Queries++
			v.MeanCAud += e.CAuditing
			v.MeanCQuery += e.CQuery
			v.Leakage += e.Leakage
		}
		if v.Queries > 0 {
			sumCQuery += v.MeanCQuery
			v.MeanCAud /= float64(v.Queries)
			v.MeanCQuery /= float64(v.Queries)
		}
		out.Queries += v.Queries
		out.Queriers = append(out.Queriers, v)
	}
	if out.Queries > 0 {
		out.CDLA = sumCQuery / float64(out.Queries)
	}
	return out
}
