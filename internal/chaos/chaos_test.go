//go:build chaos

package chaos

import (
	"crypto/rand"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"confaudit/internal/audit"
	"confaudit/internal/integrity"
	"confaudit/internal/logmodel"
	"confaudit/internal/resilience"
	"confaudit/internal/ticket"
	"confaudit/internal/transport"
	"confaudit/internal/workload"
)

// fastOptions tunes detection for test time scales while keeping the
// fault pattern deterministic in the seed.
func fastOptions(t *testing.T, seed int64, dropRate float64) Options {
	t.Helper()
	return Options{
		Nodes:    5,
		Seed:     seed,
		DropRate: dropRate,
		Jitter:   time.Millisecond,
		DataRoot: t.TempDir(),
		Health: resilience.DetectorConfig{
			Interval:     15 * time.Millisecond,
			SuspectAfter: 60 * time.Millisecond,
			DeadAfter:    120 * time.Millisecond,
		},
	}
}

// expectGLSNs filters the stored records by predicate.
func expectGLSNs(glsns []logmodel.GLSN, txs []map[logmodel.Attr]logmodel.Value, match func(map[logmodel.Attr]logmodel.Value) bool) []logmodel.GLSN {
	var out []logmodel.GLSN
	for i, vals := range txs {
		if i < len(glsns) && match(vals) {
			out = append(out, glsns[i])
		}
	}
	return out
}

func sameGLSNs(got, want []logmodel.GLSN) bool {
	if len(got) == 0 && len(want) == 0 {
		return true
	}
	return reflect.DeepEqual(got, want)
}

// TestChaosCrashedNodeDegradedAuditAndRecovery is the acceptance
// scenario: a five-node cluster loses one node mid-workload. Stores
// continue (fragments for the dead node spool to the client outbox),
// queries over survivors stay exact, queries needing the dead node
// return a typed partial result naming the unanswerable clauses within
// the deadline, and after the node restarts the outbox replays and a
// full-cluster integrity circulation verifies every glsn stored during
// the outage.
func TestChaosCrashedNodeDegradedAuditAndRecovery(t *testing.T) {
	ctx := testCtx(t)
	c, err := New(rand.Reader, fastOptions(t, 42, 0.02))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.StartAll(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.StopAll)

	cl, err := c.NewClient(ctx, "u0", "T1", ticket.OpWrite, ticket.OpRead)
	if err != nil {
		t.Fatal(err)
	}

	gen := workload.New(7)
	txs := gen.Transactions(c.Schema, 30, 4)
	var glsns []logmodel.GLSN
	for _, vals := range txs[:15] {
		g, err := cl.Log(ctx, vals)
		if err != nil {
			t.Fatalf("pre-crash store %d: %v", len(glsns), err)
		}
		glsns = append(glsns, g)
	}

	// An auditor on its own endpoint, querying through the leader.
	aep, err := c.Net.Endpoint("aud0")
	if err != nil {
		t.Fatal(err)
	}
	amb := transport.NewMailbox(aep)
	t.Cleanup(func() { amb.Close() }) //nolint:errcheck
	auditor := audit.NewAuditor(amb, "P0", "T1")

	matchU1 := func(vals map[logmodel.Attr]logmodel.Value) bool {
		return vals["id"] == logmodel.String("U1")
	}
	got, err := auditor.Query(ctx, `id = "U1"`)
	if err != nil {
		t.Fatalf("pre-crash query: %v", err)
	}
	if want := expectGLSNs(glsns, txs[:15], matchU1); !sameGLSNs(got, want) {
		t.Fatalf("pre-crash query = %v, want %v", got, want)
	}

	// Crash P3 (a follower; P3 owns Tid and C5 under the round-robin
	// partition) and wait until both the coordinator and the client see
	// it dead.
	if err := c.Crash("P3"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "P0 to see P3 dead", 5*time.Second, func() bool {
		return c.Node("P0").HealthView()["P3"].Status == resilience.StatusDead
	})
	waitFor(t, "client to see P3 dead", 5*time.Second, func() bool {
		return cl.HealthView()["P3"].Status == resilience.StatusDead
	})

	// (a) Stores continue during the outage, spooling P3's fragments.
	for _, vals := range txs[15:] {
		g, err := cl.Log(ctx, vals)
		if err != nil {
			t.Fatalf("outage store %d: %v", len(glsns), err)
		}
		glsns = append(glsns, g)
	}
	outageGLSNs := glsns[15:]
	if n := cl.OutboxLen(); n != len(outageGLSNs) {
		t.Fatalf("outbox holds %d fragments, want %d", n, len(outageGLSNs))
	}

	// Queries over survivors stay exact (id lives on P1).
	got, err = auditor.Query(ctx, `id = "U1"`)
	if err != nil {
		t.Fatalf("survivor query: %v", err)
	}
	if want := expectGLSNs(glsns, txs, matchU1); !sameGLSNs(got, want) {
		t.Fatalf("survivor query = %v, want %v", got, want)
	}

	// (b) A query needing the dead node returns a partial result naming
	// the unanswerable clause, well inside the query deadline.
	tid := txs[0]["Tid"].Render()
	start := time.Now()
	got, err = auditor.Query(ctx, fmt.Sprintf("Tid = %q AND id = \"U1\"", tid))
	elapsed := time.Since(start)
	var pr *audit.PartialResultError
	if !errors.As(err, &pr) {
		t.Fatalf("degraded query returned %v (result %v), want PartialResultError", err, got)
	}
	if elapsed > 10*time.Second {
		t.Fatalf("degraded query took %v, want a prompt partial result", elapsed)
	}
	if len(pr.Unanswerable) != 1 || !strings.Contains(pr.Unanswerable[0], "Tid") {
		t.Fatalf("unanswerable clauses = %v, want the Tid clause", pr.Unanswerable)
	}
	if len(pr.Dead) != 1 || pr.Dead[0] != "P3" {
		t.Fatalf("dead nodes = %v, want [P3]", pr.Dead)
	}
	// The partial glsn list is the answerable clause's exact result.
	if want := expectGLSNs(glsns, txs, matchU1); !sameGLSNs(got, want) {
		t.Fatalf("partial result glsns = %v, want %v", got, want)
	}

	// A query entirely on the dead node yields an empty partial result.
	got, err = auditor.Query(ctx, fmt.Sprintf("Tid = %q", tid))
	if !errors.As(err, &pr) {
		t.Fatalf("dead-only query returned %v, want PartialResultError", err)
	}
	if len(got) != 0 {
		t.Fatalf("dead-only query glsns = %v, want none", got)
	}

	// (c) Restart: the outbox replays and integrity circulation verifies
	// every glsn stored during the outage across the full cluster.
	if err := c.Restart("P3"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "outbox replay to P3", 30*time.Second, func() bool {
		return cl.OutboxLen() == 0
	})
	waitFor(t, "P0 to see P3 alive", 5*time.Second, func() bool {
		return c.Node("P0").HealthView()["P3"].Status == resilience.StatusAlive
	})

	p0 := c.Node("P0")
	rep := integrity.CheckAll(ctx, p0.Mailbox(), c.Boot.Roster, c.Boot.AccParams, p0, glsns)
	if !rep.Clean() {
		t.Fatalf("integrity after recovery: corrupted=%v errors=%v", rep.Corrupted, rep.Errors)
	}

	// And the Tid query is exact again.
	got, err = auditor.Query(ctx, fmt.Sprintf("Tid = %q", tid))
	if err != nil {
		t.Fatalf("post-recovery query: %v", err)
	}
	want := expectGLSNs(glsns, txs, func(vals map[logmodel.Attr]logmodel.Value) bool {
		return vals["Tid"] == logmodel.String(tid)
	})
	if !sameGLSNs(got, want) {
		t.Fatalf("post-recovery query = %v, want %v", got, want)
	}
}

// TestChaosScheduledCrashDuringStores drives the store workload through
// a scripted fault schedule on a lossier network: a node crashes with
// no detection grace (exercising the send-error spool path), restarts,
// and every record — including those stored while it was down — must
// verify under full-cluster integrity circulation.
func TestChaosScheduledCrashDuringStores(t *testing.T) {
	ctx := testCtx(t)
	c, err := New(rand.Reader, fastOptions(t, 1337, 0.05))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.StartAll(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.StopAll)

	cl, err := c.NewClient(ctx, "u1", "T2", ticket.OpWrite, ticket.OpRead)
	if err != nil {
		t.Fatal(err)
	}

	gen := workload.New(99)
	txs := gen.Transactions(c.Schema, 24, 4)
	var glsns []logmodel.GLSN
	store := func(batch []map[logmodel.Attr]logmodel.Value) func() error {
		return func() error {
			for _, vals := range batch {
				g, err := cl.Log(ctx, vals)
				if err != nil {
					return err
				}
				glsns = append(glsns, g)
			}
			return nil
		}
	}
	err = RunSchedule(ctx, []Event{
		{After: 0, Name: "steady stores", Run: store(txs[:8])},
		{After: 0, Name: "crash P4", Run: func() error { return c.Crash("P4") }},
		// No wait for detection: the very next stores hit send errors
		// and must spool rather than fail.
		{After: 0, Name: "stores during outage", Run: store(txs[8:16])},
		{After: 300 * time.Millisecond, Name: "restart P4", Run: func() error { return c.Restart("P4") }},
		{After: 350 * time.Millisecond, Name: "stores after restart", Run: store(txs[16:])},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(glsns) != len(txs) {
		t.Fatalf("stored %d records, want %d", len(glsns), len(txs))
	}

	waitFor(t, "outbox replay to P4", 30*time.Second, func() bool {
		return cl.OutboxLen() == 0
	})
	waitFor(t, "P0 to see P4 alive", 5*time.Second, func() bool {
		return c.Node("P0").HealthView()["P4"].Status == resilience.StatusAlive
	})

	p0 := c.Node("P0")
	rep := integrity.CheckAll(ctx, p0.Mailbox(), c.Boot.Roster, c.Boot.AccParams, p0, glsns)
	if !rep.Clean() {
		t.Fatalf("integrity after schedule: corrupted=%v errors=%v", rep.Corrupted, rep.Errors)
	}
}
