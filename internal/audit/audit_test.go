package audit

import (
	"context"
	"crypto/rand"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"confaudit/internal/cluster"
	"confaudit/internal/logmodel"
	"confaudit/internal/mathx"
	"confaudit/internal/telemetry"
	"confaudit/internal/ticket"
	"confaudit/internal/transport"
)

// rig is a full DLA cluster running the audit service, loaded with the
// paper's Table 1 data.
type rig struct {
	boot    *cluster.Bootstrap
	net     *transport.MemNetwork
	nodes   map[string]*cluster.Node
	auditor *Auditor
	writers int // endpoints opened by log
}

var (
	bootOnce sync.Once
	bootVal  *cluster.Bootstrap
	bootErr  error
)

func sharedBootstrap(t testing.TB) *cluster.Bootstrap {
	t.Helper()
	bootOnce.Do(func() {
		ex, err := logmodel.NewPaperExample()
		if err != nil {
			bootErr = err
			return
		}
		bootVal, bootErr = cluster.NewBootstrap(rand.Reader, ex.Partition, mathx.Oakley768)
	})
	if bootErr != nil {
		t.Fatalf("bootstrap: %v", bootErr)
	}
	return bootVal
}

func newRig(t *testing.T) *rig {
	t.Helper()
	return newRigWith(t, sharedBootstrap(t))
}

// newRigWith is newRig over the given provisioning material.
func newRigWith(t *testing.T, boot *cluster.Bootstrap) *rig {
	t.Helper()
	net := transport.NewMemNetwork()
	ctx, cancel := context.WithCancel(context.Background())
	r := &rig{boot: boot, net: net, nodes: make(map[string]*cluster.Node)}
	var wg sync.WaitGroup
	for _, id := range boot.Roster {
		ep, err := net.Endpoint(id)
		if err != nil {
			t.Fatal(err)
		}
		mb := transport.NewMailbox(ep)
		node, err := cluster.New(boot.NodeConfig(id), mb)
		if err != nil {
			t.Fatal(err)
		}
		node.Start(ctx)
		wg.Add(1)
		go func(node *cluster.Node) {
			defer wg.Done()
			Serve(ctx, node)
		}(node)
		r.nodes[id] = node
	}
	t.Cleanup(func() {
		cancel()
		net.Close() //nolint:errcheck
		for _, n := range r.nodes {
			n.Wait()
		}
		wg.Wait()
	})

	// Load the Table 1 records under a writer ticket.
	loadCtx, loadCancel := context.WithTimeout(ctx, 60*time.Second)
	defer loadCancel()
	ex, err := logmodel.NewPaperExample()
	if err != nil {
		t.Fatal(err)
	}
	wep, err := net.Endpoint("writer")
	if err != nil {
		t.Fatal(err)
	}
	wmb := transport.NewMailbox(wep)
	t.Cleanup(func() { wmb.Close() }) //nolint:errcheck
	wtk, err := boot.Issuer.Issue("TW", "writer", ticket.OpWrite, ticket.OpRead)
	if err != nil {
		t.Fatal(err)
	}
	wc, err := cluster.OpenClient(wmb, cluster.ClientConfig{Roster: boot.Roster, Partition: boot.Partition, Accumulator: boot.AccParams, Ticket: wtk})
	if err != nil {
		t.Fatal(err)
	}
	if err := wc.RegisterTicket(loadCtx); err != nil {
		t.Fatal(err)
	}
	for _, rec := range ex.Records {
		if _, err := wc.Log(loadCtx, rec.Values); err != nil {
			t.Fatal(err)
		}
	}

	// Auditor with a read-capable ticket.
	aep, err := net.Endpoint("auditor")
	if err != nil {
		t.Fatal(err)
	}
	amb := transport.NewMailbox(aep)
	t.Cleanup(func() { amb.Close() }) //nolint:errcheck
	atk, err := boot.Issuer.Issue("TAud", "auditor", ticket.OpRead)
	if err != nil {
		t.Fatal(err)
	}
	ac, err := cluster.OpenClient(amb, cluster.ClientConfig{Roster: boot.Roster, Partition: boot.Partition, Accumulator: boot.AccParams, Ticket: atk})
	if err != nil {
		t.Fatal(err)
	}
	if err := ac.RegisterTicket(loadCtx); err != nil {
		t.Fatal(err)
	}
	r.auditor = NewAuditor(amb, boot.Roster[0], atk.ID)
	return r
}

// log stores one more record through a fresh writer endpoint and
// returns its glsn.
func (r *rig) log(ctx context.Context, t *testing.T, values map[logmodel.Attr]logmodel.Value) logmodel.GLSN {
	t.Helper()
	r.writers++
	id := fmt.Sprintf("writer%d", r.writers)
	wep, err := r.net.Endpoint(id)
	if err != nil {
		t.Fatal(err)
	}
	wmb := transport.NewMailbox(wep)
	defer wmb.Close() //nolint:errcheck
	wtk, err := r.boot.Issuer.Issue("T"+id, id, ticket.OpWrite)
	if err != nil {
		t.Fatal(err)
	}
	wc, err := cluster.OpenClient(wmb, cluster.ClientConfig{Roster: r.boot.Roster, Partition: r.boot.Partition, Accumulator: r.boot.AccParams, Ticket: wtk})
	if err != nil {
		t.Fatal(err)
	}
	if err := wc.RegisterTicket(ctx); err != nil {
		t.Fatal(err)
	}
	g, err := wc.Log(ctx, values)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func testCtx(t *testing.T) context.Context {
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	t.Cleanup(cancel)
	return ctx
}

// tapTypes counts every message type the rig's network carries until
// the returned function is called; it returns the counts so far and
// clears them.
func tapTypes(r *rig) func() map[string]int {
	var (
		mu    sync.Mutex
		types = map[string]int{}
	)
	r.net.SetDropFn(func(m transport.Message) bool {
		mu.Lock()
		defer mu.Unlock()
		types[m.Type]++
		return false
	})
	return func() map[string]int {
		mu.Lock()
		defer mu.Unlock()
		out := types
		types = map[string]int{}
		return out
	}
}

// ringWork sums the counters a ring pass moves: relayed bytes and
// first-hop encryptions.
func ringWork() int64 {
	var n int64
	for _, c := range []string{telemetry.CtrRelayBytes, telemetry.CtrFixedBaseHits, telemetry.CtrFixedBaseMisses} {
		n += telemetry.M.Counter(c).Value()
	}
	return n
}

// prefixed sums the counts of the types that start with prefix.
func prefixed(types map[string]int, prefix string) int {
	n := 0
	for typ, c := range types {
		if strings.HasPrefix(typ, prefix) {
			n += c
		}
	}
	return n
}

// glsnsOf maps 0-based Table 1 row indices to glsn values as assigned
// (sequential from 0x139aef78).
func glsnsOf(rows ...int) []logmodel.GLSN {
	out := make([]logmodel.GLSN, len(rows))
	for i, r := range rows {
		out[i] = logmodel.GLSN(0x139aef78 + uint64(r))
	}
	return out
}

func assertGLSNs(t *testing.T, got, want []logmodel.GLSN) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestLocalPredicateQuery(t *testing.T) {
	r := newRig(t)
	ctx := testCtx(t)
	// C1 > 30 matches rows 1 (34), 2 (45), 4 (53).
	got, err := r.auditor.Query(ctx, `C1 > 30`)
	if err != nil {
		t.Fatal(err)
	}
	assertGLSNs(t, got, glsnsOf(1, 2, 4))
}

func TestConjunctionAcrossNodes(t *testing.T) {
	r := newRig(t)
	ctx := testCtx(t)
	// protocl = "UDP" (P3) AND id = "U1" (P1): rows 0, 2.
	got, err := r.auditor.Query(ctx, `protocl = "UDP" AND id = "U1"`)
	if err != nil {
		t.Fatal(err)
	}
	assertGLSNs(t, got, glsnsOf(0, 2))
}

func TestThreeWayConjunction(t *testing.T) {
	r := newRig(t)
	ctx := testCtx(t)
	// Tid = T1100265 (P2) AND C1 < 30 (P3) AND id = "U1" (P1): row 0 only
	// (row 3 has C1=18 id=U2; row 0 C1=20 id=U1 Tid=..265).
	got, err := r.auditor.Query(ctx, `Tid = "T1100265" AND C1 < 30 AND id = "U1"`)
	if err != nil {
		t.Fatal(err)
	}
	assertGLSNs(t, got, glsnsOf(0))
}

func TestCrossNodeDisjunction(t *testing.T) {
	r := newRig(t)
	ctx := testCtx(t)
	// id = "U3" (P1, row 4) OR C1 = 20 (P3, row 0): union across nodes.
	got, err := r.auditor.Query(ctx, `id = "U3" OR C1 = 20`)
	if err != nil {
		t.Fatal(err)
	}
	assertGLSNs(t, got, glsnsOf(0, 4))
}

// TestTwoMemberUnionSkipsRing runs a disjunction over two nodes and
// one over three. The two-member union returns the centralized answer
// with no ∪s run: no union.* message and no ring encryption. The
// three-member union still runs ∪s.
func TestTwoMemberUnionSkipsRing(t *testing.T) {
	r := newRig(t)
	ctx := testCtx(t)
	types := tapTypes(r)
	defer r.net.SetDropFn(nil)

	// id (P1) OR C1 (P3): rows 4 and 1, 2, 4.
	before := ringWork()
	got, err := r.auditor.Query(ctx, `id = "U3" OR C1 > 30`)
	if err != nil {
		t.Fatal(err)
	}
	assertGLSNs(t, got, glsnsOf(1, 2, 4))
	if n := prefixed(types(), "union."); n != 0 {
		t.Errorf("two-member union sent %d union.* messages, want 0", n)
	}
	if d := ringWork() - before; d != 0 {
		t.Errorf("two-member union encrypted: ring counters moved by %d, want 0", d)
	}

	// id (P1) OR C1 (P3) OR Tid (P2): rows 4, 0 and 2, 4.
	got, err = r.auditor.Query(ctx, `id = "U3" OR C1 = 20 OR Tid = "T1100267"`)
	if err != nil {
		t.Fatal(err)
	}
	assertGLSNs(t, got, glsnsOf(0, 2, 4))
	if prefixed(types(), "union.") == 0 {
		t.Error("three-member union sent no union.* message; it must run ∪s")
	}
}

// TestTwoMemberUnionLedgersMemberSet checks that the responsible member
// of a two-member union files the size of the set it received, under
// the sender's node ID, once per query.
func TestTwoMemberUnionLedgersMemberSet(t *testing.T) {
	r := newRig(t)
	ctx := testCtx(t)
	// Sessions repeat across rigs, and the ledger is process-wide.
	telemetry.L.Reset()
	for range 2 {
		_, session, _, err := r.auditor.QueryCertified(ctx, `id = "U3" OR C1 > 30`)
		if err != nil {
			t.Fatal(err)
		}
		var sets []telemetry.Disclosure
		for _, q := range telemetry.L.Snapshot().Queriers {
			for _, e := range q.Entries {
				if e.Session != session {
					continue
				}
				for _, d := range e.Disclosures {
					if d.Kind == telemetry.DiscMemberSet {
						sets = append(sets, d)
					}
				}
			}
		}
		// P1 holds id and is responsible; P3 sent C1 > 30's three glsns.
		want := telemetry.Disclosure{Kind: telemetry.DiscMemberSet, Node: "P3", Plan: string(kindCrossUnion), N: 3}
		if len(sets) != 1 || sets[0] != want {
			t.Fatalf("member-set disclosures %+v, want [%+v]", sets, want)
		}
	}
}

func TestNegationQuery(t *testing.T) {
	r := newRig(t)
	ctx := testCtx(t)
	// NOT (protocl = "UDP"): TCP rows 3, 4.
	got, err := r.auditor.Query(ctx, `NOT (protocl = "UDP")`)
	if err != nil {
		t.Fatal(err)
	}
	assertGLSNs(t, got, glsnsOf(3, 4))
}

func TestStarQuery(t *testing.T) {
	r := newRig(t)
	ctx := testCtx(t)
	got, err := r.auditor.Query(ctx, "*")
	if err != nil {
		t.Fatal(err)
	}
	assertGLSNs(t, got, glsnsOf(0, 1, 2, 3, 4))
}

func TestEmptyResult(t *testing.T) {
	r := newRig(t)
	ctx := testCtx(t)
	got, err := r.auditor.Query(ctx, `id = "U9"`)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("got %v, want empty", got)
	}
}

func TestCrossEqualityPredicate(t *testing.T) {
	r := newRig(t)
	ctx := testCtx(t)
	// id (P1) = C3 (P2): no Table 1 row has id == C3, so empty; then log
	// one matching record and re-query.
	got, err := r.auditor.Query(ctx, `id = C3`)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("got %v, want empty", got)
	}

	g := r.log(ctx, t, map[logmodel.Attr]logmodel.Value{
		"id": logmodel.String("match"),
		"C3": logmodel.String("match"),
	})
	got, err = r.auditor.Query(ctx, `id = C3`)
	if err != nil {
		t.Fatal(err)
	}
	assertGLSNs(t, got, []logmodel.GLSN{g})
}

// TestCrossEqualityKinds holds cross-node equality to logmodel.Compare:
// an int equals a float of the same value, -0 equals 0, and a string
// never equals a number, however alike their renderings.
func TestCrossEqualityKinds(t *testing.T) {
	r := newRig(t)
	ctx := testCtx(t)
	zero := r.log(ctx, t, map[logmodel.Attr]logmodel.Value{
		"C1": logmodel.Int(0),
		"C2": logmodel.Float(math.Copysign(0, -1)),
	})
	eighteen := r.log(ctx, t, map[logmodel.Attr]logmodel.Value{
		"C1": logmodel.Int(18),
		"C2": logmodel.Float(18),
	})
	r.log(ctx, t, map[logmodel.Attr]logmodel.Value{
		"id": logmodel.String("50"),
		"C3": logmodel.Int(50),
	})
	got, err := r.auditor.Query(ctx, `C1 = C2`)
	if err != nil {
		t.Fatal(err)
	}
	assertGLSNs(t, got, []logmodel.GLSN{zero, eighteen})
	got, err = r.auditor.Query(ctx, `id = C3`)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("id = C3: got %v, want empty", got)
	}
}

// TestCrossInequalityMatchesCentralized evaluates != across nodes, on
// strings and on numbers, and as a negated equality, against the
// centralized evaluation of the same records.
func TestCrossInequalityMatchesCentralized(t *testing.T) {
	r := newRig(t)
	ctx := testCtx(t)
	central := NewCentralized()
	ex, err := logmodel.NewPaperExample()
	if err != nil {
		t.Fatal(err)
	}
	for i, rec := range ex.Records {
		central.Store(logmodel.Record{GLSN: glsnsOf(i)[0], Values: rec.Values})
	}
	for _, vals := range []map[logmodel.Attr]logmodel.Value{
		{"id": logmodel.String("match"), "C3": logmodel.String("match"), "C1": logmodel.Int(7), "C2": logmodel.Float(7)},
		{"id": logmodel.String("U5"), "C3": logmodel.String("U6"), "C1": logmodel.Int(7), "C2": logmodel.Float(7.5)},
	} {
		g := r.log(ctx, t, vals)
		central.Store(logmodel.Record{GLSN: g, Values: vals})
	}
	for _, crit := range []string{`id != C3`, `NOT (id = C3)`, `C1 != C2`, `NOT (C1 = C2)`} {
		want, err := central.Query(crit)
		if err != nil {
			t.Fatalf("centralized %q: %v", crit, err)
		}
		got, err := r.auditor.Query(ctx, crit)
		if err != nil {
			t.Fatalf("%q: %v", crit, err)
		}
		assertGLSNs(t, got, want)
	}
}

// TestCrossPredicateLedgersTTPVerdicts checks that each cross-node
// predicate files its blind TTP's view in the querier's ledger. An
// order predicate's TTP judged one sign per glsn both holders hold,
// filed as ttp_verdicts under the TTP's node ID. An equality's TTP
// matched keyed tags, filed as ttp_overlap: each holder's number of
// aligned glsns under the holder's ID, the match count under the TTP's.
func TestCrossPredicateLedgersTTPVerdicts(t *testing.T) {
	r := newRig(t)
	ctx := testCtx(t)
	// C1 (P3) and C2 (P1) are both set on the five Table 1 rows and on
	// this record; C2 alone is set on the next, which is not aligned.
	r.log(ctx, t, map[logmodel.Attr]logmodel.Value{"C1": logmodel.Int(1), "C2": logmodel.Float(1)})
	r.log(ctx, t, map[logmodel.Attr]logmodel.Value{"C2": logmodel.Float(2)})
	// Sessions repeat across rigs, and the ledger is process-wide.
	telemetry.L.Reset()

	_, session, _, err := r.auditor.QueryCertified(ctx, `C1 = C2`)
	if err != nil {
		t.Fatal(err)
	}
	ttpView := func() []telemetry.Disclosure {
		var out []telemetry.Disclosure
		for _, q := range telemetry.L.Snapshot().Queriers {
			for _, e := range q.Entries {
				if e.Session != session {
					continue
				}
				for _, d := range e.Disclosures {
					if d.Kind == telemetry.DiscTTPVerdicts || d.Kind == telemetry.DiscTTPOverlap {
						out = append(out, d)
					}
				}
			}
		}
		slices.SortFunc(out, func(a, b telemetry.Disclosure) int { return strings.Compare(a.Node, b.Node) })
		return out
	}
	// Only the 1 = 1.0 record matches.
	want := []telemetry.Disclosure{
		{Kind: telemetry.DiscTTPOverlap, Node: "P0", Plan: string(kindCrossEq), N: 1},
		{Kind: telemetry.DiscTTPOverlap, Node: "P1", Plan: string(kindCrossEq), N: 6},
		{Kind: telemetry.DiscTTPOverlap, Node: "P3", Plan: string(kindCrossEq), N: 6},
	}
	// The TTP files its view after it sends the verdict, so the result
	// can reach the auditor first.
	for stop := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		got := ttpView()
		if slices.Equal(got, want) {
			break
		}
		if len(got) > len(want) || time.Now().After(stop) {
			t.Fatalf("C1 = C2: TTP disclosures %+v, want %+v", got, want)
		}
	}

	for crit, plan := range map[string]planKind{`C1 < C2`: kindCrossCmp} {
		_, session, _, err := r.auditor.QueryCertified(ctx, crit)
		if err != nil {
			t.Fatalf("%q: %v", crit, err)
		}
		var verdicts []telemetry.Disclosure
		for _, q := range telemetry.L.Snapshot().Queriers {
			for _, e := range q.Entries {
				if e.Session != session {
					continue
				}
				for _, d := range e.Disclosures {
					if d.Kind == telemetry.DiscTTPVerdicts {
						verdicts = append(verdicts, d)
					}
				}
			}
		}
		want := telemetry.Disclosure{Kind: telemetry.DiscTTPVerdicts, Node: "P0", Plan: string(plan), N: 6}
		if len(verdicts) != 1 || verdicts[0] != want {
			t.Fatalf("%q: TTP disclosures %+v, want [%+v]", crit, verdicts, want)
		}
	}
}

func TestCrossComparisonPredicate(t *testing.T) {
	r := newRig(t)
	ctx := testCtx(t)
	// C1 (P3, int) < C2 (P1, float): C1 vs C2 per row:
	// 20<23.45 T, 34<345.11 T, 45<235.00 T, 18<45.02 T, 53<678.75 T.
	got, err := r.auditor.Query(ctx, `C1 < C2`)
	if err != nil {
		t.Fatal(err)
	}
	assertGLSNs(t, got, glsnsOf(0, 1, 2, 3, 4))

	// C1 > C2 matches nothing.
	got, err = r.auditor.Query(ctx, `C1 > C2`)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("got %v, want empty", got)
	}

	// An int above a float that it is below times 10^6: both kinds
	// must share one scale, or 50 < 10.0 holds.
	g := r.log(ctx, t, map[logmodel.Attr]logmodel.Value{
		"C1": logmodel.Int(50),
		"C2": logmodel.Float(10.0),
	})
	got, err = r.auditor.Query(ctx, `C1 < C2`)
	if err != nil {
		t.Fatal(err)
	}
	assertGLSNs(t, got, glsnsOf(0, 1, 2, 3, 4))
	got, err = r.auditor.Query(ctx, `C1 > C2`)
	if err != nil {
		t.Fatal(err)
	}
	assertGLSNs(t, got, []logmodel.GLSN{g})
}

func TestAggregates(t *testing.T) {
	r := newRig(t)
	ctx := testCtx(t)
	cases := []struct {
		name     string
		criteria string
		kind     AggKind
		attr     logmodel.Attr
		want     float64
	}{
		{"count all", "*", AggCount, "", 5},
		{"count udp", `protocl = "UDP"`, AggCount, "", 3},
		{"sum C1", "*", AggSum, "C1", 20 + 34 + 45 + 18 + 53},
		{"sum C2 over tcp", `protocl = "TCP"`, AggSum, "C2", 45.02 + 678.75},
		{"max C1", "*", AggMax, "C1", 53},
		{"min C1", "*", AggMin, "C1", 18},
		{"avg C1", "*", AggAvg, "C1", 34},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := r.auditor.Aggregate(ctx, tc.criteria, tc.kind, tc.attr)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(got-tc.want) > 1e-9 {
				t.Fatalf("got %v, want %v", got, tc.want)
			}
		})
	}
}

func TestQueryDeniedWithoutTicket(t *testing.T) {
	r := newRig(t)
	ctx := testCtx(t)
	ep, err := r.net.Endpoint("stranger")
	if err != nil {
		t.Fatal(err)
	}
	mb := transport.NewMailbox(ep)
	defer mb.Close() //nolint:errcheck
	a := NewAuditor(mb, r.boot.Roster[0], "TNone")
	_, err = a.Query(ctx, `C1 > 0`)
	if err == nil || !strings.Contains(err.Error(), "denied") {
		t.Fatalf("err = %v, want denial", err)
	}
}

func TestQueryDeniedWriteOnlyTicket(t *testing.T) {
	r := newRig(t)
	ctx := testCtx(t)
	ep, err := r.net.Endpoint("wo")
	if err != nil {
		t.Fatal(err)
	}
	mb := transport.NewMailbox(ep)
	defer mb.Close() //nolint:errcheck
	tk, err := r.boot.Issuer.Issue("TWO", "wo", ticket.OpWrite)
	if err != nil {
		t.Fatal(err)
	}
	c, err := cluster.OpenClient(mb, cluster.ClientConfig{Roster: r.boot.Roster, Partition: r.boot.Partition, Accumulator: r.boot.AccParams, Ticket: tk})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.RegisterTicket(ctx); err != nil {
		t.Fatal(err)
	}
	a := NewAuditor(mb, r.boot.Roster[0], tk.ID)
	if _, err := a.Query(ctx, `C1 > 0`); err == nil {
		t.Fatal("write-only ticket ran a query")
	}
}

func TestMalformedCriteriaRejected(t *testing.T) {
	r := newRig(t)
	ctx := testCtx(t)
	if _, err := r.auditor.Query(ctx, `C1 >`); err == nil {
		t.Fatal("malformed criteria accepted")
	}
	if _, err := r.auditor.Query(ctx, `nosuchattr = 1`); err == nil {
		t.Fatal("unknown attribute accepted")
	}
}

func TestUnsupportedCrossShapeRejected(t *testing.T) {
	r := newRig(t)
	ctx := testCtx(t)
	// A disjunction containing a node-spanning predicate is outside the
	// engine's repertoire and must fail loudly, not silently misreport.
	_, err := r.auditor.Query(ctx, `id = C3 OR C1 = 20`)
	if err == nil {
		t.Fatal("unsupported criteria accepted")
	}
}

func TestConcurrentQueries(t *testing.T) {
	r := newRig(t)
	ctx := testCtx(t)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := r.auditor.Query(ctx, `protocl = "UDP" AND id = "U1"`)
			if err != nil {
				t.Errorf("query: %v", err)
				return
			}
			if len(got) != 2 {
				t.Errorf("got %v", got)
			}
		}()
	}
	wg.Wait()
}

func TestAggregateOverUnknownAttr(t *testing.T) {
	r := newRig(t)
	ctx := testCtx(t)
	if _, err := r.auditor.Aggregate(ctx, "*", AggSum, "nosuch"); err == nil {
		t.Fatal("aggregate over unknown attribute accepted")
	}
	if _, err := r.auditor.Aggregate(ctx, "*", AggKind("median"), "C1"); err == nil {
		t.Fatal("unknown aggregate kind accepted")
	}
	// Sum over a string attribute fails at the owner.
	if _, err := r.auditor.Aggregate(ctx, "*", AggSum, "id"); err == nil {
		t.Fatal("sum over string attribute accepted")
	}
}
