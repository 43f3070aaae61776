package chaos

import (
	"context"
	"crypto/rand"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"confaudit/internal/cluster"
	"confaudit/internal/logmodel"
	"confaudit/internal/ticket"
	"confaudit/internal/workload"
)

func testCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	t.Cleanup(cancel)
	return ctx
}

// TestAppenderAckedRecordsSurvive is the ack contract end to end: two
// producers stream records through Appenders into a 3-node cluster, and
// afterwards every acked glsn must hold a fragment on every node.
func TestAppenderAckedRecordsSurvive(t *testing.T) {
	t.Run("no_crash", func(t *testing.T) {
		const records = 600
		c := startCluster(t, Options{Nodes: 3, Seed: 42})
		run := streamAppends(t, c, records, nil)
		if len(run.acked) != records || run.failed != 0 {
			t.Fatalf("acked %d, failed %d; want %d acked, 0 failed", len(run.acked), run.failed, records)
		}
		if lost := lostAcks(c, run.acked); lost != 0 {
			t.Fatalf("%d of %d acked records lost", lost, len(run.acked))
		}
	})

	// P1 is crashed once a quarter of the acks have resolved, while the
	// producers keep appending, and restarted from its segment store
	// 400 ms later. That outlasts a send's retry budget, so batches for
	// P1 spool to the producers' outboxes meanwhile and replay to it.
	t.Run("crash_restart", func(t *testing.T) {
		const records = 4000
		c := startCluster(t, Options{Nodes: 3, Seed: 7, DataRoot: t.TempDir()})
		var appendedAtCrash int64
		run := streamAppends(t, c, records, func(appended *atomic.Int64) error {
			if err := c.Crash("P1"); err != nil {
				return err
			}
			appendedAtCrash = appended.Load()
			time.Sleep(400 * time.Millisecond)
			return c.Restart("P1")
		})
		if appendedAtCrash >= records {
			t.Fatalf("P1 went down after all %d appends; the crash must land mid-stream", records)
		}
		if len(run.acked) == 0 {
			t.Fatalf("nothing acked across the crash (%d failed)", run.failed)
		}
		// Replay what P1 missed (a failed replay is retried until the
		// deadline), then sweep whether or not the outboxes drained.
		spooled, unreplayed := 0, 0
		deadline := time.Now().Add(10 * time.Second)
		for _, cl := range run.clients {
			spooled += cl.OutboxLen()
			for cl.OutboxLen() > 0 && time.Now().Before(deadline) {
				ctx, cancel := context.WithTimeout(context.Background(), time.Second)
				if _, err := cl.ReplayOutbox(ctx, "P1"); err != nil {
					time.Sleep(10 * time.Millisecond)
				}
				cancel()
			}
			unreplayed += cl.OutboxLen()
		}
		if lost := lostAcks(c, run.acked); lost != 0 || unreplayed != 0 {
			t.Fatalf("%d of %d acked records missing after recovery, %d of %d spooled batches not replayed (%d failed)",
				lost, len(run.acked), unreplayed, spooled, run.failed)
		}
		t.Logf("crash after %d of %d appends: %d acked, %d failed, %d batches replayed from outboxes, 0 lost",
			appendedAtCrash, records, len(run.acked), run.failed, spooled)
	})
}

func startCluster(t *testing.T, opts Options) *Cluster {
	t.Helper()
	c, err := New(rand.Reader, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.StopAll)
	if err := c.StartAll(); err != nil {
		t.Fatal(err)
	}
	return c
}

// appendRun is what the producers saw.
type appendRun struct {
	acked   []logmodel.GLSN
	failed  int
	clients []*cluster.Client
}

// streamAppends splits records generated over the cluster's schema
// between two producers, each appending through its own client and
// Appender while a consumer resolves the acks behind it. When fault is
// set it runs once a quarter of the acks have resolved, alongside the
// producers, and is handed the running count of appended records.
func streamAppends(t *testing.T, c *Cluster, records int, fault func(appended *atomic.Int64) error) appendRun {
	t.Helper()
	const producers = 2
	ctx := testCtx(t)
	events := workload.New(7).Transactions(c.Schema, records, 64)
	var (
		run      appendRun
		mu       sync.Mutex
		wg       sync.WaitGroup
		appended atomic.Int64
		resolved atomic.Int64
		quarter  = make(chan struct{})
	)
	// Every producer is connected before any starts, so a failed set-up
	// fails the test with no goroutine left running.
	appenders := make([]*cluster.Appender, producers)
	for p := range appenders {
		id := fmt.Sprintf("producer%d", p)
		cl, err := c.NewClient(ctx, id, "T-"+id, ticket.OpWrite, ticket.OpRead)
		if err != nil {
			t.Fatal(err)
		}
		// A store that reached a node just before it went down is never
		// answered; the short AckTimeout resends it (to the outbox while
		// the node is down) instead of stalling for the 10 s default.
		if appenders[p], err = cl.NewAppender(ctx, cluster.AppendOptions{MaxBatchRecords: 64, AckTimeout: time.Second}); err != nil {
			t.Fatal(err)
		}
		run.clients = append(run.clients, cl.Client)
	}
	for p, ap := range appenders {
		pending := make(chan *cluster.Ack, records)
		wg.Add(2)
		go func(recs []map[logmodel.Attr]logmodel.Value) {
			defer wg.Done()
			defer close(pending)
			for _, rec := range recs {
				ack, err := ap.Append(ctx, rec)
				if err != nil {
					t.Errorf("producer%d: append: %v", p, err)
					break
				}
				appended.Add(1)
				pending <- ack
			}
			if err := ap.Close(ctx); err != nil {
				t.Errorf("producer%d: close: %v", p, err)
			}
		}(events[p*records/producers : (p+1)*records/producers])
		go func() {
			defer wg.Done()
			for ack := range pending {
				g, err := ack.GLSN()
				mu.Lock()
				if err != nil {
					run.failed++
				} else {
					run.acked = append(run.acked, g)
				}
				mu.Unlock()
				if resolved.Add(1) == int64(records/4) {
					close(quarter)
				}
			}
		}()
	}
	done := make(chan struct{})
	faultErr := make(chan error, 1)
	if fault != nil {
		go func() {
			select {
			case <-quarter:
				faultErr <- fault(&appended)
			case <-done:
				faultErr <- fmt.Errorf("only %d of %d acks resolved; the fault never ran", resolved.Load(), records)
			}
		}()
	}
	wg.Wait()
	close(done)
	if fault != nil {
		if err := <-faultErr; err != nil {
			t.Fatal(err)
		}
	}
	return run
}

// lostAcks counts acked glsns missing a fragment on any node.
func lostAcks(c *Cluster, acked []logmodel.GLSN) int {
	lost := 0
	for _, g := range acked {
		for _, id := range c.Boot.Roster {
			n := c.Node(id)
			if n == nil {
				lost++
				break
			}
			if _, ok := n.Fragment(g); !ok {
				lost++
				break
			}
		}
	}
	return lost
}
