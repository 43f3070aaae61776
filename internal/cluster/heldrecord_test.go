package cluster

import (
	"crypto/ed25519"
	"errors"
	"fmt"
	"math/big"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"confaudit/internal/logmodel"
	"confaudit/internal/ticket"
	"confaudit/internal/transport"
	"confaudit/internal/workload"
)

// TestMaterializeRacesOverwriteAndDelete runs Digest on one glsn from
// several goroutines while the writer overwrites it version by version
// and then deletes it. Once an overwrite is acked, every answer must be
// the new content's digest (or a later version's, since the next
// overwrite may already be landing), never an element cached for older
// content. Once the delete is acked, none may be returned. Run under
// -race it also checks the lock discipline of Digest's element cache.
func TestMaterializeRacesOverwriteAndDelete(t *testing.T) {
	tc := startCluster(t)
	ctx := testCtx(t)
	c := tc.client(t, "mat-u", "TMAT", ticket.OpWrite, ticket.OpRead, ticket.OpDelete)
	if err := c.RegisterTicket(ctx); err != nil {
		t.Fatal(err)
	}
	g, err := c.RequestGLSNRange(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}

	const versions = 8
	nodes := c.part.Nodes()
	// want[v] is version v's record digest by the accumulator's
	// definition.
	want := make([]*big.Int, versions)
	for v := range want {
		want[v] = c.acc.AccumulateAll(recordItems(c, logmodel.Record{GLSN: g, Values: appendRecord(v)}))
	}
	// matches reports whether some version >= from has the digest got.
	matches := func(from int, got *big.Int) bool {
		for v := from; v < versions; v++ {
			if want[v].Cmp(got) == 0 {
				return true
			}
		}
		return false
	}

	// acked is the last version every node has acked; versions marks the
	// delete as acked. deleting is set before the delete is sent, so a
	// reader that finds the glsn gone before that ack can tell why.
	var acked atomic.Int64
	var deleting atomic.Bool
	acked.Store(-1)
	store := func(v int) {
		t.Helper()
		if _, err := c.storeRange(ctx, g, []map[logmodel.Attr]logmodel.Value{appendRecord(v)}, AppendOptions{}.withDefaults()); err != nil {
			t.Fatalf("version %d: %v", v, err)
		}
		acked.Store(int64(v))
	}
	store(0)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var answers atomic.Int64
	for range 4 {
		for _, id := range nodes {
			wg.Add(1)
			go func(node *Node) {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					from := int(acked.Load())
					got, ok := node.Digest(g)
					answers.Add(1)
					switch {
					case from == versions && ok:
						t.Errorf("%s: answered for %s after its delete was acked", node.id, g)
						return
					case from < versions && !ok && !deleting.Load():
						t.Errorf("%s: no answer for %s at acked version %d", node.id, g, from)
						return
					case ok && !matches(from, got):
						t.Errorf("%s: answer for %s matches no version >= acked %d", node.id, g, from)
						return
					}
				}
			}(tc.nodes[id])
		}
	}

	defer func() {
		close(stop)
		wg.Wait()
	}()
	// Let the readers answer a while under each acked state (bounded, in
	// case they all stopped on an error).
	settle := func() {
		deadline := time.Now().Add(5 * time.Second)
		for base := answers.Load(); answers.Load() < base+200 && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
	}
	settle()
	for v := 1; v < versions; v++ {
		store(v)
		settle()
	}
	deleting.Store(true)
	if err := c.Delete(ctx, g); err != nil {
		t.Fatal(err)
	}
	acked.Store(versions)
	settle()
}

// versionRecord is a record whose every attribute of the paper schema
// names version v, so each node's fragment of it does too.
func versionRecord(schema *logmodel.Schema, v int) map[logmodel.Attr]logmodel.Value {
	out := make(map[logmodel.Attr]logmodel.Value, len(schema.Attrs))
	for i, a := range schema.Attrs {
		if i%2 == 0 {
			out[a] = logmodel.String(strconv.Itoa(v))
		} else {
			out[a] = logmodel.Int(int64(v))
		}
	}
	return out
}

// fragmentVersion returns the version every value of a fragment's
// values names, or an error if they disagree.
func fragmentVersion(values map[logmodel.Attr]logmodel.Value) (int, error) {
	version := -1
	for a, val := range values {
		v := int(val.I)
		if val.Kind == logmodel.KindString {
			var err error
			if v, err = strconv.Atoi(val.S); err != nil {
				return 0, fmt.Errorf("attribute %s: %v", a, err)
			}
		}
		if version >= 0 && v != version {
			return 0, fmt.Errorf("attribute %s names version %d, another %d", a, v, version)
		}
		version = v
	}
	if version < 0 {
		return 0, errors.New("no values")
	}
	return version, nil
}

// TestVisitFragmentsRacesOverwriteAndDelete scans every node with
// VisitFragments and reads single fragments with Fragment while the
// writer overwrites the same glsns version by version and then deletes
// half of them. A node holds each record as immutable bytes and swaps
// in a fresh record on every write, so each read must see one whole
// version of a fragment, never a mix of two, and never a version older
// than the last one acked before the read began; once the deletes are
// acked, no read may find a deleted glsn. Run under -race it also
// checks that scans decode outside the state lock without racing the
// writers.
func TestVisitFragmentsRacesOverwriteAndDelete(t *testing.T) {
	tc := startCluster(t)
	ctx := testCtx(t)
	c := tc.client(t, "vis-u", "TVIS", ticket.OpWrite, ticket.OpRead, ticket.OpDelete)
	if err := c.RegisterTicket(ctx); err != nil {
		t.Fatal(err)
	}
	schema := c.part.Schema()
	const (
		records  = 16
		versions = 6
	)
	batch := func(v int) []map[logmodel.Attr]logmodel.Value {
		out := make([]map[logmodel.Attr]logmodel.Value, records)
		for i := range out {
			out[i] = versionRecord(schema, v)
		}
		return out
	}
	gs, err := c.LogBatch(ctx, batch(0))
	if err != nil {
		t.Fatal(err)
	}
	deleted := make(map[logmodel.GLSN]bool)
	for _, g := range gs[:records/2] {
		deleted[g] = true
	}

	// acked is the last version every node has acked; gone is set once
	// every delete is acked, deleting just before the first is sent.
	var acked atomic.Int64
	var deleting, gone atomic.Bool
	check := func(node *Node, g logmodel.GLSN, values map[logmodel.Attr]logmodel.Value, from int, wasGone bool) error {
		if wasGone && deleted[g] {
			return fmt.Errorf("%s: read deleted %s after its delete was acked", node.id, g)
		}
		v, err := fragmentVersion(values)
		if err != nil {
			return fmt.Errorf("%s: %s mixes versions: %v", node.id, g, err)
		}
		if v < from {
			return fmt.Errorf("%s: %s at version %d after version %d was acked", node.id, g, v, from)
		}
		return nil
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var reads atomic.Int64
	for _, node := range tc.nodes {
		wg.Add(2)
		go func(node *Node) { // whole-node scans
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				from, wasGone := int(acked.Load()), gone.Load()
				seen := 0
				err := node.VisitFragments(nil, func(g logmodel.GLSN, values map[logmodel.Attr]logmodel.Value) error {
					seen++
					return check(node, g, values, from, wasGone)
				})
				if err == nil && !deleting.Load() && seen != records {
					err = fmt.Errorf("%s: scan saw %d of %d records", node.id, seen, records)
				}
				if err != nil {
					t.Error(err)
					return
				}
				reads.Add(1)
			}
		}(node)
		go func(node *Node) { // single-fragment reads, and a scan of a few
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				from, wasGone := int(acked.Load()), gone.Load()
				g := gs[i%records]
				frag, ok := node.Fragment(g)
				var err error
				switch {
				case ok && (frag.GLSN != g || frag.Node != node.id):
					err = fmt.Errorf("%s: Fragment(%s) returned %s on %s", node.id, g, frag.GLSN, frag.Node)
				case ok:
					err = check(node, g, frag.Values, from, wasGone)
				case !deleting.Load() || !deleted[g]:
					err = fmt.Errorf("%s: %s missing", node.id, g)
				}
				if err == nil {
					err = node.VisitFragments(gs[i%4:i%4+3], func(g logmodel.GLSN, values map[logmodel.Attr]logmodel.Value) error {
						return check(node, g, values, from, wasGone)
					})
				}
				if err != nil {
					t.Error(err)
					return
				}
				reads.Add(1)
			}
		}(node)
	}
	defer func() {
		close(stop)
		wg.Wait()
	}()
	// Let the readers run a while under each acked state (bounded, in
	// case they all stopped on an error).
	settle := func() {
		deadline := time.Now().Add(5 * time.Second)
		for base := reads.Load(); reads.Load() < base+100 && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
	}
	settle()
	for v := 1; v < versions; v++ {
		if _, err := c.storeRange(ctx, gs[0], batch(v), AppendOptions{}.withDefaults()); err != nil {
			t.Fatalf("version %d: %v", v, err)
		}
		acked.Store(int64(v))
		settle()
	}
	deleting.Store(true)
	for g := range deleted {
		if err := c.Delete(ctx, g); err != nil {
			t.Fatal(err)
		}
	}
	gone.Store(true)
	settle()
}

// TestReplayHeldRecordsAcrossCompaction journals signed writes, an
// overwrite and a delete on a durable cluster, compacts every node's
// store from the records it holds, then overwrites and deletes again
// on top of the snapshot. After a restart every node must hold the same
// glsns and answer Fragment, Digest and Provenance for each
// exactly as it did live.
func TestReplayHeldRecordsAcrossCompaction(t *testing.T) {
	root := t.TempDir()
	ctx := testCtx(t)
	tc, stop := durableCluster(t, root)
	_, signer, err := ed25519.GenerateKey(nil)
	if err != nil {
		t.Fatal(err)
	}
	tk, err := tc.boot.Issuer.Issue("THELD", "held-u", ticket.OpWrite, ticket.OpRead, ticket.OpDelete)
	if err != nil {
		t.Fatal(err)
	}
	c := tc.openClient(t, "held-u", ClientConfig{Ticket: tk, Signer: signer})
	if err := c.RegisterTicket(ctx); err != nil {
		t.Fatal(err)
	}
	schema := c.part.Schema()
	records := make([]map[logmodel.Attr]logmodel.Value, 8)
	for i := range records {
		records[i] = versionRecord(schema, i)
	}
	gs, err := c.LogBatch(ctx, records)
	if err != nil {
		t.Fatal(err)
	}
	overwrite := func(g logmodel.GLSN, v int) {
		t.Helper()
		if _, err := c.storeRange(ctx, g, []map[logmodel.Attr]logmodel.Value{versionRecord(schema, v)}, AppendOptions{}.withDefaults()); err != nil {
			t.Fatal(err)
		}
	}
	overwrite(gs[1], 100)
	if err := c.Delete(ctx, gs[2]); err != nil {
		t.Fatal(err)
	}
	for _, node := range tc.nodes {
		node.Digest(gs[3]) // a cached element must not reach the snapshot
		if err := node.CompactStorage(); err != nil {
			t.Fatal(err)
		}
	}
	overwrite(gs[3], 300)
	if err := c.Delete(ctx, gs[4]); err != nil {
		t.Fatal(err)
	}

	held := func(tc *testCluster) map[string]string {
		out := stateSnapshot(tc, gs, nil)
		for id, node := range tc.nodes {
			out[id+"/glsns"] = fmt.Sprint(node.GLSNs())
		}
		return out
	}
	live := held(tc)
	for _, g := range []logmodel.GLSN{gs[0], gs[1], gs[3]} {
		if _, ok := live["P0/"+g.String()+"/prov"]; !ok {
			t.Fatalf("live P0 holds no provenance for %s", g)
		}
	}
	stop()

	tc2, stop2 := durableCluster(t, root)
	defer stop2()
	diffSnapshots(t, "replayed", live, held(tc2))
}

// storeBatchMessage builds node's store batch for n generated records
// of the paper schema at glsns first.., with real exponents, as the
// message a writer sends.
func storeBatchMessage(tb testing.TB, boot *Bootstrap, ticketID, node string, first logmodel.GLSN, n int) transport.Message {
	tb.Helper()
	body := storeBatchBody{TicketID: ticketID}
	for i, values := range workload.New(1).Transactions(boot.Partition.Schema(), n, 16) {
		_, items := referenceItems(boot.Partition, boot.AccParams, nil, first+logmodel.GLSN(i), values)
		body.Items = append(body.Items, items[node])
	}
	msg, err := transport.NewMessage(node, MsgLogStoreBatch, "", &body)
	if err != nil {
		tb.Fatal(err)
	}
	return msg
}

// storeBatch is storeBatchMessage's body as the node decodes it.
func storeBatch(tb testing.TB, boot *Bootstrap, ticketID, node string, first logmodel.GLSN, n int) *storeBatchBody {
	tb.Helper()
	var body storeBatchBody
	if err := transport.Unmarshal(storeBatchMessage(tb, boot, ticketID, node, first, n).Payload, &body); err != nil {
		tb.Fatal(err)
	}
	return &body
}

// benchNode is a memory-only node P1 with a registered write ticket
// and a grant of n glsns, returned with the first of them.
func benchNode(b testing.TB, n int) (*Node, string, logmodel.GLSN) {
	b.Helper()
	boot := sharedBootstrap(b)
	net := transport.NewMemNetwork()
	b.Cleanup(func() { net.Close() }) //nolint:errcheck
	ep, err := net.Endpoint("P1")
	if err != nil {
		b.Fatal(err)
	}
	node, err := New(boot.NodeConfig("P1"), transport.NewMailbox(ep))
	if err != nil {
		b.Fatal(err)
	}
	tk, err := boot.Issuer.Issue("TBENCH", "bench-u", ticket.OpWrite)
	if err != nil {
		b.Fatal(err)
	}
	if err := node.registerTicket(&ticketRegisterBody{Ticket: ToWire(tk)}); err != nil {
		b.Fatal(err)
	}
	first := node.nextGLSN
	if err := node.applyGrantRange(first, n, tk.ID); err != nil {
		b.Fatal(err)
	}
	return node, tk.ID, first
}

// BenchmarkInstallStoreBatch decodes one node's 128-item store batch
// from its payload, installs it and releases the decoded batch, as
// handleStoreBatch does once the grant is in place. The batch carries
// real exponents and a generated record of the paper schema per item.
// Between iterations, off the clock, the batch's records are removed
// again, so every iteration installs fresh records as an ingest stream
// does.
func BenchmarkInstallStoreBatch(b *testing.B) {
	const items = 128
	node, ticketID, first := benchNode(b, items)
	msg := storeBatchMessage(b, sharedBootstrap(b), ticketID, "P1", first, items)
	install := func() {
		var got storeBatchBody
		if err := transport.Unmarshal(msg.Payload, &got); err != nil {
			b.Fatal(err)
		}
		if err := node.storeFragmentBatch(&got); err != nil {
			b.Fatal(err)
		}
		got.release()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		install()
		b.StopTimer()
		node.mu.Lock()
		for g := first; g < first+items; g++ {
			node.frags.remove(g)
		}
		node.mu.Unlock()
		b.StartTimer()
	}
}

// loadedBenchNode is benchNode holding n generated records, returned
// with their glsns.
func loadedBenchNode(b *testing.B, n int) (*Node, []logmodel.GLSN) {
	b.Helper()
	node, ticketID, first := benchNode(b, n)
	if err := node.storeFragmentBatch(storeBatch(b, sharedBootstrap(b), ticketID, "P1", first, n)); err != nil {
		b.Fatal(err)
	}
	return node, node.GLSNs()
}

// BenchmarkIndexLookup answers equality lookups against a node holding
// 4096 generated records: each iteration looks up the value one held
// record stores for each of the node's attributes, so unique keys and
// keys shared by many records are both asked for, as audit equality
// predicates ask for them.
func BenchmarkIndexLookup(b *testing.B) {
	node, gs := loadedBenchNode(b, 4096)
	type probe struct {
		attr logmodel.Attr
		v    logmodel.Value
	}
	var probes []probe
	for _, g := range gs {
		frag, _ := node.Fragment(g)
		for a, v := range frag.Values {
			probes = append(probes, probe{a, v})
		}
	}
	slices.SortFunc(probes, func(x, y probe) int { return strings.Compare(string(x.attr), string(y.attr)) })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := probes[i%len(probes)]
		if _, ok := node.IndexLookup(p.attr, p.v); !ok {
			b.Fatalf("lookup of %s declined", p.attr)
		}
	}
}

// BenchmarkVisitFragments scans every fragment of a node holding 4096
// generated records, as an audit clause's scan path does.
func BenchmarkVisitFragments(b *testing.B) {
	node, gs := loadedBenchNode(b, 4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seen := 0
		if err := node.VisitFragments(nil, func(logmodel.GLSN, map[logmodel.Attr]logmodel.Value) error {
			seen++
			return nil
		}); err != nil || seen != len(gs) {
			b.Fatalf("visited %d of %d (%v)", seen, len(gs), err)
		}
	}
}

// BenchmarkFragment reads every fragment of a node holding 4096
// generated records one at a time through Node.Fragment, as a reader
// of single records does.
func BenchmarkFragment(b *testing.B) {
	node, gs := loadedBenchNode(b, 4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, g := range gs {
			if _, ok := node.Fragment(g); !ok {
				b.Fatalf("fragment %s missing", g)
			}
		}
	}
}
