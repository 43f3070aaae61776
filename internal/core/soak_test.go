package core

import (
	"fmt"
	"sync"
	"testing"

	"confaudit/internal/audit"
	"confaudit/internal/logmodel"
	"confaudit/internal/ticket"
	"confaudit/internal/workload"
)

// TestConcurrentMixedWorkload soaks the full system: multiple writers
// logging, multiple auditors querying and aggregating, and integrity
// sweeps — all concurrently. The assertions are invariants that must
// hold under any interleaving.
func TestConcurrentMixedWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	schema, err := workload.ECommerceSchema(3)
	if err != nil {
		t.Fatal(err)
	}
	part, err := workload.RoundRobinPartition(schema, 4)
	if err != nil {
		t.Fatal(err)
	}
	d, err := Deploy(Options{Partition: part})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close() //nolint:errcheck
	ctx := testCtx(t)

	const (
		writers        = 3
		recordsPer     = 15
		auditorQueries = 10
	)
	var wg sync.WaitGroup
	// Writers.
	for w := 0; w < writers; w++ {
		user := connect(t, d, fmt.Sprintf("soak-u%d", w), fmt.Sprintf("TSOAK%d", w))
		gen := workload.New(uint64(100 + w))
		recs := gen.Transactions(schema, recordsPer, 4)
		wg.Add(1)
		go func(user *Client, recs []map[logmodel.Attr]logmodel.Value) {
			defer wg.Done()
			for _, vals := range recs {
				if _, err := user.Log(ctx, vals); err != nil {
					t.Errorf("log: %v", err)
					return
				}
			}
		}(user, recs)
	}
	// Auditors run while writes are in flight; result sizes only grow
	// between observations of the same query.
	auditor := connect(t, d, "soak-aud", "TSOAKA", ticket.OpRead).Auditor()
	wg.Add(1)
	go func() {
		defer wg.Done()
		prev := 0
		for i := 0; i < auditorQueries; i++ {
			n, err := auditor.Aggregate(ctx, "*", audit.AggCount, "")
			if err != nil {
				t.Errorf("aggregate: %v", err)
				return
			}
			if int(n) < prev {
				t.Errorf("record count shrank: %d -> %v", prev, n)
				return
			}
			prev = int(n)
		}
	}()
	// Integrity sweeps run concurrently and must never flag corruption.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 3; i++ {
			rep, err := d.CheckIntegrity(ctx, "P1")
			if err != nil {
				t.Errorf("integrity: %v", err)
				return
			}
			if len(rep.Corrupted) > 0 {
				t.Errorf("false corruption during soak: %v", rep.Corrupted)
				return
			}
		}
	}()
	wg.Wait()

	// Final invariants.
	total, err := auditor.Aggregate(ctx, "*", audit.AggCount, "")
	if err != nil {
		t.Fatal(err)
	}
	if int(total) != writers*recordsPer {
		t.Fatalf("final count %v, want %d", total, writers*recordsPer)
	}
	rep, err := d.CheckIntegrity(ctx, "P0")
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() || rep.Checked != writers*recordsPer {
		t.Fatalf("final integrity: %+v", rep)
	}
}
