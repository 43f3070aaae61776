package chaos

import (
	"testing"
	"time"

	"confaudit/internal/resilience"
	"confaudit/internal/ticket"
	"confaudit/internal/workload"
)

// TestOutboxDrainsPromptlyAfterRestart crashes a node, spools three
// batches for it, and restarts it: the client's detector must report
// the node alive, and the replay must go through, within a few ping
// intervals. A send path that keeps refusing a peer after it restarts
// (a circuit breaker counting the crash's refused sends) holds both
// until its cool-down ends.
func TestOutboxDrainsPromptlyAfterRestart(t *testing.T) {
	c := startCluster(t, Options{
		Nodes:    3,
		Seed:     5,
		DataRoot: t.TempDir(),
		Health: resilience.DetectorConfig{
			Interval:     15 * time.Millisecond,
			SuspectAfter: 60 * time.Millisecond,
			DeadAfter:    120 * time.Millisecond,
		},
	})
	ctx := testCtx(t)
	cl, err := c.NewClient(ctx, "u0", "T1", ticket.OpWrite, ticket.OpRead)
	if err != nil {
		t.Fatal(err)
	}
	status := func(want resilience.Status) func() bool {
		return func() bool { return cl.HealthView()["P1"].Status == want }
	}

	if err := c.Crash("P1"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the client to see P1 dead", 5*time.Second, status(resilience.StatusDead))
	gen := workload.New(5)
	for i := 0; i < 3; i++ {
		if _, err := cl.LogBatch(ctx, gen.Transactions(c.Schema, 4, 4)); err != nil {
			t.Fatalf("batch %d during the outage: %v", i, err)
		}
	}
	if n := cl.OutboxLen(); n != 3 {
		t.Fatalf("outbox holds %d batches, want 3", n)
	}

	if err := c.Restart("P1"); err != nil {
		t.Fatal(err)
	}
	restarted := time.Now()
	waitFor(t, "the client to see P1 alive", 5*time.Second, status(resilience.StatusAlive))
	alive := time.Since(restarted)
	waitFor(t, "the outbox to drain", 5*time.Second, func() bool { return cl.OutboxLen() == 0 })
	if d := time.Since(restarted); d > 150*time.Millisecond {
		t.Fatalf("outbox drained %v after P1 restarted (reported alive after %v), want within 150ms", d, alive)
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
