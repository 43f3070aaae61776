package audit

import (
	"context"
	"sort"
	"testing"
	"time"

	"confaudit/internal/transport"
)

// TestExecRefusedFromNonCoordinator plays an endpoint holding no ticket
// that skips the coordinator: it plans a conjunction itself, names
// itself coordinator and querier, and dispatches the plan to every
// involved node. Executors must drop it, so the final glsn set never
// reaches the stranger.
func TestExecRefusedFromNonCoordinator(t *testing.T) {
	r := newRig(t)
	ep, err := r.net.Endpoint("stranger")
	if err != nil {
		t.Fatal(err)
	}
	mb := transport.NewMailbox(ep)
	defer mb.Close() //nolint:errcheck

	plans, _, err := buildPlans(`protocl = "UDP" AND id = "U1"`, r.boot.Partition)
	if err != nil {
		t.Fatal(err)
	}
	exec := execBody{Plans: plans, Coordinator: "stranger", Querier: "stranger"}
	ring := make(map[string]struct{})
	involved := make(map[string]struct{})
	for i := range plans {
		ring[plans[i].responsible()] = struct{}{}
		for _, n := range plans[i].involved() {
			involved[n] = struct{}{}
		}
	}
	for n := range ring {
		exec.FinalRing = append(exec.FinalRing, n)
	}
	sort.Strings(exec.FinalRing)
	exec.FinalReceiver = exec.FinalRing[0]

	ctx := testCtx(t)
	const session = "stranger-exec"
	for n := range involved {
		if err := mb.SendBody(ctx, n, MsgExec, session, exec); err != nil {
			t.Fatal(err)
		}
	}
	wait, cancel := context.WithTimeout(ctx, 500*time.Millisecond)
	defer cancel()
	if fin, err := mb.Expect(wait, MsgFinal, session); err == nil {
		t.Fatalf("%s answered a stranger's exec with a final result: %s", fin.From, fin.Payload)
	}
}
