package audit

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"confaudit/internal/transport"
)

// TestQueryFailsFastWhenNodeUnreachable partitions a DLA node and
// verifies the auditor gets an error within its own deadline instead of
// hanging (the coordinator cannot finish the secure conjunction without
// the partitioned node).
func TestQueryFailsFastWhenNodeUnreachable(t *testing.T) {
	r := newRig(t)
	// Cut P3 (owner of protocl/C1) off from the rest of the cluster.
	r.net.Partition("P3")
	defer r.net.Partition() // heal for other tests sharing the bootstrap

	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	_, err := r.auditor.Query(ctx, `protocl = "UDP" AND id = "U1"`)
	if err == nil {
		t.Fatal("query succeeded across a partition")
	}
	if !errors.Is(err, context.DeadlineExceeded) && err.Error() == "" {
		t.Fatalf("unexpected error shape: %v", err)
	}
}

// TestQueryAfterHealRecovers verifies the same query succeeds once the
// partition heals — no poisoned state is left behind.
func TestQueryAfterHealRecovers(t *testing.T) {
	r := newRig(t)
	r.net.Partition("P2")
	ctx1, cancel1 := context.WithTimeout(context.Background(), 2*time.Second)
	_, err := r.auditor.Query(ctx1, `Tid = "T1100265"`)
	cancel1()
	if err == nil {
		t.Fatal("query succeeded across a partition")
	}
	r.net.Partition() // heal

	ctx := testCtx(t)
	got, err := r.auditor.Query(ctx, `Tid = "T1100265"`)
	if err != nil {
		t.Fatalf("query after heal: %v", err)
	}
	if len(got) != 3 {
		t.Fatalf("got %v, want 3 records", got)
	}
}

// TestLossyNetworkQuery drops a fraction of protocol messages; the
// query must fail cleanly (no hang beyond the client deadline, no wrong
// answer).
func TestLossyNetworkQuery(t *testing.T) {
	r := newRig(t)
	var drop atomic.Int64
	r.net.SetDropFn(func(m transport.Message) bool {
		// Drop every 7th intersect relay — enough to break the final
		// conjunction ring deterministically.
		if m.Type == "intersect.relay" {
			return drop.Add(1)%7 == 0
		}
		return false
	})
	defer r.net.SetDropFn(nil)

	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	// Over all four nodes, so the final conjunction runs the ring.
	got, err := r.auditor.Query(ctx, `protocl = "UDP" AND id = "U1" AND Tid = "T1100265" AND time > "20:00"`)
	if err == nil && len(got) != 1 {
		t.Fatalf("lossy network returned a wrong answer: %v", got)
	}
	// Either a correct answer (losses missed the critical messages) or a
	// clean error are acceptable; a wrong answer is not.
}
