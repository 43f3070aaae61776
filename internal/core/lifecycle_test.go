package core

import (
	"crypto/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"confaudit/internal/cluster"
	"confaudit/internal/logmodel"
	"confaudit/internal/mathx"
	"confaudit/internal/storage"
	"confaudit/internal/telemetry"
	"confaudit/internal/transport"
)

// awaitGoroutines polls until the live goroutine count falls back to
// the baseline (with a small tolerance for runtime helpers).
func awaitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("goroutines leaked: baseline %d, now %d\n%s",
				baseline, runtime.NumGoroutine(), buf)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func paperMaterial(t *testing.T) (*logmodel.PaperExample, *cluster.Bootstrap) {
	t.Helper()
	ex, err := logmodel.NewPaperExample()
	if err != nil {
		t.Fatal(err)
	}
	boot, err := cluster.NewBootstrap(rand.Reader, ex.Partition, mathx.Oakley768)
	if err != nil {
		t.Fatal(err)
	}
	return ex, boot
}

// TestFailedDeployReleasesEverything fails a durable Deploy at its third
// node (DataDir/P2 is a regular file, so its segment store cannot open)
// and requires that the nodes already started, their stores and
// mailboxes, and the owned network are all released: the goroutine
// count returns to baseline, and a redeploy over the same DataDir works.
func TestFailedDeployReleasesEverything(t *testing.T) {
	ex, boot := paperMaterial(t)
	root := t.TempDir()
	blocker := filepath.Join(root, "P2")
	if err := os.WriteFile(blocker, []byte("not a directory"), 0o644); err != nil {
		t.Fatal(err)
	}
	opts := Options{Partition: ex.Partition, DataDir: root, Material: boot}

	baseline := runtime.NumGoroutine()
	if d, err := Deploy(opts); err == nil {
		d.Close() //nolint:errcheck
		t.Fatal("Deploy succeeded with DataDir/P2 a regular file")
	}
	awaitGoroutines(t, baseline)

	if err := os.Remove(blocker); err != nil {
		t.Fatal(err)
	}
	d, err := Deploy(opts)
	if err != nil {
		t.Fatalf("redeploy over the same DataDir: %v", err)
	}
	defer d.Close() //nolint:errcheck
	user := connect(t, d, "u0", "T1")
	if _, err := user.Log(testCtx(t), ex.Records[0].Values); err != nil {
		t.Fatal(err)
	}
}

// TestRunningNodeStopOrder stops a durable cluster with one query in
// flight. Stop must reap every node and service goroutine before it
// closes the segment store: afterwards the goroutine count is back to
// baseline and every store reopens and replays all it held, with
// nothing quarantined.
func TestRunningNodeStopOrder(t *testing.T) {
	ex, boot := paperMaterial(t)
	root := t.TempDir()
	ctx := testCtx(t)

	baseline := runtime.NumGoroutine()
	net := transport.NewMemNetwork()
	var nodes []*RunningNode
	for _, id := range boot.Roster {
		ep, err := net.Endpoint(id)
		if err != nil {
			t.Fatal(err)
		}
		n, err := StartNode(ep, boot.NodeConfig(id), &storage.Options{Dir: filepath.Join(root, id)}, nil)
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, n)
	}
	ep, err := net.Endpoint("u0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := Connect(ctx, ep, boot, cluster.ClientConfig{}, "T1")
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range ex.Records {
		if _, err := c.Log(ctx, rec.Values); err != nil {
			t.Fatal(err)
		}
	}
	held := make(map[string]int64, len(nodes))
	for _, n := range nodes {
		held[n.Node().ID()] = n.Node().StorageStatus().Records
	}

	// The query is in flight once its coordinator has planned it.
	planned := telemetry.M.Counter(telemetry.CtrSubqueries)
	before := planned.Value()
	queryErr := make(chan error, 1)
	go func() {
		_, err := c.Auditor().Query(ctx, `protocl = "UDP" AND id = "U1"`)
		queryErr <- err
	}()
	deadline := time.Now().Add(10 * time.Second)
	for planned.Value() == before {
		if time.Now().After(deadline) {
			t.Fatal("query never reached its coordinator")
		}
		time.Sleep(time.Millisecond)
	}
	for _, n := range nodes {
		if err := n.Stop(); err != nil {
			t.Fatalf("stop %s: %v", n.Node().ID(), err)
		}
	}
	c.Close() //nolint:errcheck // ends the auditor's wait if the query lost its coordinator
	<-queryErr
	net.Close() //nolint:errcheck
	awaitGoroutines(t, baseline)

	for _, id := range boot.Roster {
		st, err := storage.Open(storage.Options{Backend: storage.BackendDisk, Dir: filepath.Join(root, id)}, boot.AccParams, nil)
		if err != nil {
			t.Fatalf("reopen %s: %v", id, err)
		}
		var replayed int64
		err = st.Replay(func(storage.Record) error { replayed++; return nil })
		status := st.Status()
		if cerr := st.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			t.Fatalf("replay %s: %v", id, err)
		}
		if replayed != held[id] || len(status.Quarantined) != 0 {
			t.Fatalf("%s replayed %d of %d records, quarantined %v", id, replayed, held[id], status.Quarantined)
		}
	}
}
