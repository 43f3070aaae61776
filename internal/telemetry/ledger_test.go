package telemetry

import (
	"math"
	"strings"
	"testing"
)

func TestLedgerRecordAndSnapshot(t *testing.T) {
	l := NewLedger()
	l.RecordQuery("userA", "q/a/1", 0.8, 0.6)
	l.RecordQuery("userA", "q/a/2", 0.4, 0.2)
	l.RecordQuery("userB", "q/b/1", 1.0, 1.0)
	l.RecordDisclosure("userA", "q/a/1", "P1", DiscSetCardinality, "equality", 40)
	l.RecordDisclosure("userA", "q/a/1", "P0", DiscResultCount, "", 12)

	s := l.Snapshot()
	if s.Queries != 3 || len(s.Queriers) != 2 {
		t.Fatalf("snapshot totals: %+v", s)
	}
	if want := (0.6 + 0.2 + 1.0) / 3; math.Abs(s.CDLA-want) > 1e-9 {
		t.Fatalf("C_DLA %v, want %v", s.CDLA, want)
	}
	a := s.Queriers[0]
	if a.Querier != "userA" || a.Queries != 2 {
		t.Fatalf("querier A: %+v", a)
	}
	if math.Abs(a.MeanCAud-0.6) > 1e-9 || math.Abs(a.MeanCQuery-0.4) > 1e-9 {
		t.Fatalf("querier A means: %+v", a)
	}
	if math.Abs(a.Leakage-(0.4+0.8)) > 1e-9 {
		t.Fatalf("querier A leakage %v, want 1.2", a.Leakage)
	}
	e := a.Entries[0]
	if e.Session != "q/a/1" || len(e.Disclosures) != 2 {
		t.Fatalf("entry: %+v", e)
	}
	if e.Disclosures[0].Kind != DiscSetCardinality || e.Disclosures[0].N != 40 || e.Disclosures[0].Plan != "equality" {
		t.Fatalf("disclosure: %+v", e.Disclosures[0])
	}
}

func TestLedgerIgnoresAnonymousAndDisabled(t *testing.T) {
	l := NewLedger()
	l.RecordQuery("", "q/x", 0.5, 0.5)
	l.RecordDisclosure("", "q/x", "P0", DiscResultCount, "", 1)
	SetEnabled(false)
	l.RecordQuery("user", "q/x", 0.5, 0.5)
	SetEnabled(true)
	if s := l.Snapshot(); s.Queries != 0 {
		t.Fatalf("recorded while anonymous/disabled: %+v", s)
	}
}

func TestLedgerBudgetAlarm(t *testing.T) {
	before := M.Counter(CtrLeakAlarms).Value()
	l := NewLedger()
	l.SetDefaultBudget(1.0)

	// Each query leaks 1 - 0.3 = 0.7. Default budget 1.0: the second
	// query pushes cumulative leakage to 1.4 and trips the alarm.
	l.RecordQuery("user", "q/1", 0.3, 0.3)
	if M.Counter(CtrLeakAlarms).Value() != before {
		t.Fatal("alarm tripped under budget")
	}
	l.RecordQuery("user", "q/2", 0.3, 0.3)
	if got := M.Counter(CtrLeakAlarms).Value() - before; got != 1 {
		t.Fatalf("alarm delta %d, want 1", got)
	}

	s := l.Snapshot()
	for _, q := range s.Queriers {
		if !q.Alarmed {
			t.Fatalf("querier %s not flagged alarmed: %+v", q.Querier, q)
		}
	}
	out := FormatLedger(s)
	if !strings.Contains(out, "[ALARM: budget exceeded]") {
		t.Fatalf("render missing alarm flag:\n%s", out)
	}
}

func TestLedgerFIFOEviction(t *testing.T) {
	l := NewLedger()
	for i := 0; i < maxQueriers+5; i++ {
		l.RecordQuery("u"+itoa(int64(i)), "q/1", 1, 1)
	}
	s := l.Snapshot()
	if len(s.Queriers) != maxQueriers {
		t.Fatalf("stored %d queriers, want %d", len(s.Queriers), maxQueriers)
	}
	for _, q := range s.Queriers {
		if q.Querier == "u0" {
			t.Fatal("oldest querier should have been evicted")
		}
	}

	// Per-querier entry FIFO: the oldest session's entry rolls off but
	// the cumulative counters keep the full history.
	l2 := NewLedger()
	for i := 0; i < maxEntriesPerQuerier+2; i++ {
		l2.RecordQuery("u", "q/"+itoa(int64(i)), 1, 1)
	}
	q := l2.Snapshot().Queriers[0]
	if len(q.Entries) != maxEntriesPerQuerier {
		t.Fatalf("stored %d entries, want %d", len(q.Entries), maxEntriesPerQuerier)
	}
	if q.Entries[0].Session != "q/2" {
		t.Fatalf("oldest surviving entry %q, want q/2", q.Entries[0].Session)
	}
	if q.Queries != maxEntriesPerQuerier+2 {
		t.Fatalf("cumulative count %d lost evicted queries", q.Queries)
	}
	// Disclosures for a surviving session still index the right entry
	// after the shift.
	l2.RecordDisclosure("u", "q/5", "P1", DiscIntersection, "", 9)
	q = l2.Snapshot().Queriers[0]
	for _, e := range q.Entries {
		if e.Session == "q/5" {
			if len(e.Disclosures) != 1 || e.Disclosures[0].N != 9 {
				t.Fatalf("disclosure misfiled after eviction: %+v", e)
			}
			return
		}
	}
	t.Fatal("session q/5 missing")
}

// TestLedgerCountsEvictedEntries records more sessions for one querier
// than its entry bound holds: the snapshot must report how many of the
// oldest entries rolled off, and a merged cluster view must keep that
// count.
func TestLedgerCountsEvictedEntries(t *testing.T) {
	l := NewLedger()
	for i := 0; i < 300; i++ {
		l.RecordQuery("u", "q/"+itoa(int64(i)), 1, 1)
	}
	q := l.Snapshot().Queriers[0]
	if q.EntriesEvicted != 44 {
		t.Fatalf("entries evicted = %d, want 44 (300 recorded, %d kept)", q.EntriesEvicted, maxEntriesPerQuerier)
	}
	if len(q.Entries)+q.EntriesEvicted != int(q.Queries) {
		t.Fatalf("%d kept + %d evicted != %d recorded", len(q.Entries), q.EntriesEvicted, q.Queries)
	}
	merged := MergeLedgers([]LedgerSnapshot{l.Snapshot(), NewLedger().Snapshot()})
	if got := merged.Queriers[0].EntriesEvicted; got != 44 {
		t.Fatalf("merged entries evicted = %d, want 44", got)
	}
}

func TestMergeLedgers(t *testing.T) {
	// Coordinator fragment: scores, result-count disclosure.
	coord := NewLedger()
	coord.RecordQuery("user", "q/1", 0.8, 0.5)
	coord.RecordDisclosure("user", "q/1", "P0", DiscResultCount, "", 12)
	// Executor fragment: same session, no scores, per-plan disclosures.
	exec := NewLedger()
	exec.RecordDisclosure("user", "q/1", "P1", DiscSetCardinality, "equality", 40)
	exec.RecordDisclosure("user", "q/1", "P2", DiscSetCardinality, "compare", 25)

	m := MergeLedgers([]LedgerSnapshot{coord.Snapshot(), exec.Snapshot()})
	if m.Queries != 1 || len(m.Queriers) != 1 {
		t.Fatalf("merge double-counted the session: %+v", m)
	}
	q := m.Queriers[0]
	if len(q.Entries) != 1 {
		t.Fatalf("entries not unioned: %+v", q.Entries)
	}
	e := q.Entries[0]
	if e.CQuery != 0.5 || e.CAuditing != 0.8 {
		t.Fatalf("coordinator scores lost: %+v", e)
	}
	if len(e.Disclosures) != 3 {
		t.Fatalf("disclosures not unioned (%d): %+v", len(e.Disclosures), e.Disclosures)
	}
	if math.Abs(m.CDLA-0.5) > 1e-9 {
		t.Fatalf("merged C_DLA %v, want 0.5", m.CDLA)
	}

	out := FormatLedger(m)
	for _, want := range []string{"querier user", "q/1", "set_cardinality[equality] @P1 n=40", "result_count @P0 n=12"} {
		if !strings.Contains(out, want) {
			t.Fatalf("FormatLedger missing %q:\n%s", want, out)
		}
	}
}
