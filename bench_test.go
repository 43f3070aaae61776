// Benchmarks regenerating every paper artifact's cost profile — one
// bench (or bench family) per table, figure, and quantitative claim.
// See EXPERIMENTS.md for the artifact index and recorded results, and
// cmd/benchtab for the content reproductions.
package confaudit_test

import (
	"context"
	"crypto/rand"
	"fmt"
	"math/big"
	"sync"
	"testing"
	"time"

	"confaudit/internal/audit"
	"confaudit/internal/cluster"
	"confaudit/internal/crypto/blind"
	"confaudit/internal/crypto/commutative"
	"confaudit/internal/evidence"
	"confaudit/internal/integrity"
	"confaudit/internal/logmodel"
	"confaudit/internal/mathx"
	"confaudit/internal/metrics"
	"confaudit/internal/query"
	"confaudit/internal/smc/circuit"
	"confaudit/internal/smc/compare"
	"confaudit/internal/smc/garbled"
	"confaudit/internal/smc/intersect"
	"confaudit/internal/smc/smctest"
	"confaudit/internal/smc/sum"
	"confaudit/internal/telemetry"
	"confaudit/internal/ticket"
	"confaudit/internal/transport"
	"confaudit/internal/workload"
	"confaudit/pkg/dla"
)

func paperExample(b *testing.B) *logmodel.PaperExample {
	b.Helper()
	ex, err := logmodel.NewPaperExample()
	if err != nil {
		b.Fatal(err)
	}
	return ex
}

// runParties runs one SMC party per id through smctest.RunParties and
// fails the benchmark on the first party error. Each party loops over
// b.N itself, so the network and mailboxes are set up once per
// benchmark rather than once per iteration.
func runParties(b *testing.B, ids []string, party func(ctx context.Context, id string, mb *transport.Mailbox) error) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	if _, err := smctest.RunParties(context.Background(), ids, func(ctx context.Context, id string, mb *transport.Mailbox) (struct{}, error) {
		return struct{}{}, party(ctx, id, mb)
	}); err != nil {
		b.Fatal(err)
	}
}

// --- Tables 1-5: fragmentation ---

// BenchmarkTables1to5Fragmentation measures splitting a Table 1 record
// into the Tables 2-5 fragments and reassembling it.
func BenchmarkTables1to5Fragmentation(b *testing.B) {
	ex := paperExample(b)
	rec := ex.Records[0]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		frags := ex.Partition.Split(rec)
		list := make([]logmodel.Fragment, 0, len(frags))
		for _, f := range frags {
			list = append(list, f)
		}
		if _, err := logmodel.Reassemble(list); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Table 6: access control ---

// BenchmarkTable6AccessControl measures the per-glsn grant + authorize
// path of the replicated access-control table.
func BenchmarkTable6AccessControl(b *testing.B) {
	iss, err := ticket.NewIssuer(rand.Reader)
	if err != nil {
		b.Fatal(err)
	}
	tbl, err := ticket.NewAccessTable(iss.Public())
	if err != nil {
		b.Fatal(err)
	}
	tk, err := iss.Issue("T1", "u0", ticket.OpWrite, ticket.OpRead)
	if err != nil {
		b.Fatal(err)
	}
	if err := tbl.Register(tk); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := logmodel.GLSN(i + 1)
		if err := tbl.Grant("T1", g, 1); err != nil {
			b.Fatal(err)
		}
		if err := tbl.Authorize("T1", ticket.OpRead, g); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figures 1 & 2: centralized vs DLA query ---

type dlaRig struct {
	auditor *dla.Session
}

func deployLoaded(b *testing.B, records int) *dlaRig {
	b.Helper()
	ex := paperExample(b)
	cl, err := dla.Deploy(dla.ClusterOptions{Partition: ex.Partition})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { cl.Close() }) //nolint:errcheck
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	user, err := dla.Connect(ctx, cl, dla.SessionConfig{ID: "bench-user", TicketID: "TB"})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { user.Close() }) //nolint:errcheck
	for i := 0; i < records; i++ {
		rec := ex.Records[i%len(ex.Records)]
		if _, err := user.Log(ctx, rec.Values); err != nil {
			b.Fatal(err)
		}
	}
	auditor, err := dla.Connect(ctx, cl, dla.SessionConfig{ID: "bench-aud", TicketID: "TBA", Ops: []dla.Op{dla.OpRead}})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { auditor.Close() }) //nolint:errcheck
	return &dlaRig{auditor: auditor}
}

// BenchmarkFigure1CentralizedQuery is the single-trusted-auditor
// baseline: criteria evaluated directly over complete records.
func BenchmarkFigure1CentralizedQuery(b *testing.B) {
	ex := paperExample(b)
	c := audit.NewCentralized()
	for i := 0; i < 100; i++ {
		rec := ex.Records[i%len(ex.Records)].Clone()
		rec.GLSN = logmodel.GLSN(i + 1)
		c.Store(rec)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Query(`protocl = "UDP" AND id = "U1"`); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure2DLAQuery is the same criteria through the full
// distributed confidential pipeline (normalization, per-node subqueries,
// secure set intersection of the conjunction).
func BenchmarkFigure2DLAQuery(b *testing.B) {
	rig := deployLoaded(b, 100)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rig.auditor.Query(ctx, `protocl = "UDP" AND id = "U1"`); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure2DLAAggregate measures the confidential statistics
// path (sum over matched records at the attribute owner).
func BenchmarkFigure2DLAAggregate(b *testing.B) {
	rig := deployLoaded(b, 100)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rig.auditor.Aggregate(ctx, `protocl = "UDP"`, audit.AggSum, "C2"); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure 3: query normalization and planning ---

func BenchmarkFigure3NormalizeClassify(b *testing.B) {
	ex := paperExample(b)
	src := `C1 > 30 AND Tid = "T1100265" AND (time = "x" OR id = "U1") AND C2 < C1`
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		expr, err := query.Parse(src)
		if err != nil {
			b.Fatal(err)
		}
		n, err := query.Normalize(expr)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := query.Classify(n, ex.Partition); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure 4: secure set intersection ---

func BenchmarkFigure4Intersection(b *testing.B) {
	sets := map[string][][]byte{
		"P1": {[]byte("c"), []byte("d"), []byte("e")},
		"P2": {[]byte("d"), []byte("e"), []byte("f")},
		"P3": {[]byte("e"), []byte("f"), []byte("g")},
	}
	benchIntersect(b, []string{"P1", "P2", "P3"}, sets)
}

// benchIntersect runs b.N secure set intersections over the ring, with
// ring[0] the only receiver.
func benchIntersect(b *testing.B, ring []string, sets map[string][][]byte) {
	runParties(b, ring, func(ctx context.Context, id string, mb *transport.Mailbox) error {
		for i := 0; i < b.N; i++ {
			cfg := intersect.Config{
				Group:     mathx.Oakley768,
				Ring:      ring,
				Receivers: []string{ring[0]},
				Session:   fmt.Sprintf("ip-%d", i),
			}
			if _, err := intersect.Run(ctx, mb, cfg, sets[id]); err != nil {
				return err
			}
		}
		return nil
	})
}

// --- Figure 5 / §3.2: relaxed equality; claim C1 classical baseline ---

// BenchmarkClaimC1RelaxedEquality measures the §3.2 randomized-mapping
// equality through a blind TTP.
func BenchmarkClaimC1RelaxedEquality(b *testing.B) {
	v := big.NewInt(123456)
	runParties(b, []string{"A", "B", "T"}, func(ctx context.Context, id string, mb *transport.Mailbox) error {
		for i := 0; i < b.N; i++ {
			cfg := compare.EqualityConfig{
				P:       big.NewInt(2305843009213693951),
				Holders: [2]string{"A", "B"},
				TTP:     "T",
				Session: fmt.Sprintf("eq-%d", i),
			}
			var err error
			if id == "T" {
				err = compare.ServeEqual(ctx, mb, cfg)
			} else {
				_, err = compare.Equal(ctx, mb, cfg, v)
			}
			if err != nil {
				return err
			}
		}
		return nil
	})
}

// BenchmarkClaimC1GarbledEquality is the classical zero-disclosure
// counterpart: a 32-bit equality circuit garbled and evaluated over
// oblivious transfer. The ratio to the relaxed bench above is the
// paper's "excessive overheads" claim, measured.
func BenchmarkClaimC1GarbledEquality(b *testing.B) {
	c := circuit.Equality(32)
	x := circuit.Uint64ToBits(123456, 32)
	runParties(b, []string{"G", "E"}, func(ctx context.Context, id string, mb *transport.Mailbox) error {
		for i := 0; i < b.N; i++ {
			cfg := garbled.Config{Group: mathx.Oakley768, Garbler: "G", Evaluator: "E", Session: fmt.Sprintf("gc-%d", i)}
			var err error
			if id == "G" {
				_, err = garbled.Garble(ctx, mb, cfg, c, x)
			} else {
				_, err = garbled.Evaluate(ctx, mb, cfg, c, x)
			}
			if err != nil {
				return err
			}
		}
		return nil
	})
}

// --- Claim C2: blind-TTP ranking ---

func BenchmarkClaimC2RankTTP(b *testing.B) {
	values := map[string]*big.Int{"A": big.NewInt(3), "B": big.NewInt(1), "C": big.NewInt(2)}
	runParties(b, []string{"A", "B", "C", "T"}, func(ctx context.Context, id string, mb *transport.Mailbox) error {
		for i := 0; i < b.N; i++ {
			cfg := compare.RankConfig{
				Holders:  []string{"A", "B", "C"},
				TTP:      "T",
				MaxValue: big.NewInt(1000),
				Session:  fmt.Sprintf("rank-%d", i),
			}
			var err error
			if id == "T" {
				err = compare.ServeRank(ctx, mb, cfg)
			} else {
				_, err = compare.Rank(ctx, mb, cfg, values[id])
			}
			if err != nil {
				return err
			}
		}
		return nil
	})
}

// --- Claim C3: secure sum scaling ---

func BenchmarkClaimC3SecureSum(b *testing.B) {
	for _, parties := range []int{3, 5, 9} {
		b.Run(fmt.Sprintf("parties=%d", parties), func(b *testing.B) {
			benchSecureSum(b, parties, parties/2+1)
		})
	}
}

// benchSecureSum runs b.N secure sums of the party indices over
// P0..P{parties-1} with threshold k and P0 the only receiver.
func benchSecureSum(b *testing.B, parties, k int) {
	ids := make([]string, parties)
	values := make(map[string]*big.Int, parties)
	for i := range ids {
		ids[i] = fmt.Sprintf("P%d", i)
		values[ids[i]] = big.NewInt(int64(i))
	}
	runParties(b, ids, func(ctx context.Context, id string, mb *transport.Mailbox) error {
		for i := 0; i < b.N; i++ {
			cfg := sum.Config{
				P:         big.NewInt(2305843009213693951),
				Parties:   ids,
				K:         k,
				Receivers: []string{ids[0]},
				Session:   fmt.Sprintf("s-%d", i),
			}
			if _, err := sum.Run(ctx, mb, cfg, values[id]); err != nil {
				return err
			}
		}
		return nil
	})
}

// --- Figures 6 & 7: evidence chain ---

func BenchmarkFigure7JoinHandshake(b *testing.B) {
	ca, err := blind.NewAuthority(rand.Reader, 1024)
	if err != nil {
		b.Fatal(err)
	}
	inviter, err := evidence.NewMember(rand.Reader, 1024, ca.Public(), ca.SignBlinded)
	if err != nil {
		b.Fatal(err)
	}
	joiner, err := evidence.NewMember(rand.Reader, 1024, ca.Public(), ca.SignBlinded)
	if err != nil {
		b.Fatal(err)
	}
	net := transport.NewMemNetwork()
	defer net.Close() //nolint:errcheck
	iEp, err := net.Endpoint("I")
	if err != nil {
		b.Fatal(err)
	}
	jEp, err := net.Endpoint("J")
	if err != nil {
		b.Fatal(err)
	}
	iMB, jMB := transport.NewMailbox(iEp), transport.NewMailbox(jEp)
	defer iMB.Close() //nolint:errcheck
	defer jMB.Close() //nolint:errcheck
	ctx := context.Background()
	chain := &evidence.Chain{CA: ca.Public()}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		session := fmt.Sprintf("join-%d", i)
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			evidence.Invite(ctx, iMB, session, inviter, chain, "J", "serve") //nolint:errcheck
		}()
		go func() {
			defer wg.Done()
			evidence.Join(ctx, jMB, session, joiner, "I", []string{"svc"}) //nolint:errcheck
		}()
		wg.Wait()
	}
}

func BenchmarkFigure6ChainVerify(b *testing.B) {
	ca, err := blind.NewAuthority(rand.Reader, 1024)
	if err != nil {
		b.Fatal(err)
	}
	// Build a 4-member chain once.
	members := make([]*evidence.Member, 4)
	for i := range members {
		if members[i], err = evidence.NewMember(rand.Reader, 1024, ca.Public(), ca.SignBlinded); err != nil {
			b.Fatal(err)
		}
	}
	net := transport.NewMemNetwork()
	defer net.Close() //nolint:errcheck
	mbs := make([]*transport.Mailbox, 4)
	for i := range mbs {
		ep, err := net.Endpoint(fmt.Sprintf("N%d", i))
		if err != nil {
			b.Fatal(err)
		}
		mbs[i] = transport.NewMailbox(ep)
		defer mbs[i].Close() //nolint:errcheck
	}
	ctx := context.Background()
	chain := &evidence.Chain{CA: ca.Public()}
	for i := 1; i < 4; i++ {
		session := fmt.Sprintf("bj-%d", i)
		var wg sync.WaitGroup
		var piece *evidence.Piece
		wg.Add(2)
		go func(inv int) {
			defer wg.Done()
			piece, _ = evidence.Invite(ctx, mbs[inv], session, members[inv], chain, fmt.Sprintf("N%d", inv+1), "serve") //nolint:errcheck
		}(i - 1)
		go func(j int) {
			defer wg.Done()
			evidence.Join(ctx, mbs[j], session, members[j], fmt.Sprintf("N%d", j-1), []string{"svc"}) //nolint:errcheck
		}(i)
		wg.Wait()
		if piece == nil {
			b.Fatal("join failed")
		}
		chain.Pieces = append(chain.Pieces, *piece)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := chain.Verify(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Eqs. 10-13: confidentiality metrics ---

func BenchmarkEq10to13ConfidentialitySweep(b *testing.B) {
	schema, err := workload.ECommerceSchema(4)
	if err != nil {
		b.Fatal(err)
	}
	part, err := workload.RoundRobinPartition(schema, 4)
	if err != nil {
		b.Fatal(err)
	}
	raw := workload.New(3).Transactions(schema, 50, 5)
	recs := make([]logmodel.Record, len(raw))
	for i, vals := range raw {
		recs[i] = logmodel.Record{GLSN: logmodel.GLSN(i + 1), Values: vals}
	}
	mix := workload.QueryMix(4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := metrics.DLA(part, recs, mix); err != nil {
			b.Fatal(err)
		}
	}
}

// --- §4.1: integrity circulation scaling ---

func BenchmarkIntegrityCirculation(b *testing.B) {
	for _, nodes := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("nodes=%d", nodes), func(b *testing.B) {
			benchIntegrity(b, nodes)
		})
	}
}

type benchStore struct {
	frag   logmodel.Fragment
	digest *big.Int
}

func (s *benchStore) Fragment(logmodel.GLSN) (logmodel.Fragment, bool) { return s.frag, true }
func (s *benchStore) Digest(logmodel.GLSN) (*big.Int, bool)            { return s.digest, true }

func benchIntegrity(b *testing.B, nodes int) {
	boot, err := cluster.NewBootstrap(rand.Reader, mustPart(b, nodes), mathx.Oakley768)
	if err != nil {
		b.Fatal(err)
	}
	net := transport.NewMemNetwork()
	defer net.Close() //nolint:errcheck
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ring := boot.Roster
	stores := make(map[string]*benchStore, nodes)
	frags := make([][]byte, 0, nodes)
	for _, id := range ring {
		frag := logmodel.Fragment{GLSN: 1, Node: id, Values: map[logmodel.Attr]logmodel.Value{
			logmodel.Attr("a-" + id): logmodel.Int(1),
		}}
		stores[id] = &benchStore{frag: frag}
		frags = append(frags, frag.Canonical())
	}
	digest := boot.AccParams.AccumulateAll(frags)
	for _, s := range stores {
		s.digest = digest
	}
	mbs := make(map[string]*transport.Mailbox, nodes)
	for _, id := range ring {
		ep, err := net.Endpoint(id)
		if err != nil {
			b.Fatal(err)
		}
		mbs[id] = transport.NewMailbox(ep)
		defer mbs[id].Close()                                              //nolint:errcheck
		go integrity.Serve(ctx, mbs[id], ring, boot.AccParams, stores[id]) //nolint:errcheck
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := integrity.Check(ctx, mbs[ring[0]], ring, boot.AccParams, stores[ring[0]], 1); err != nil {
			b.Fatal(err)
		}
	}
}

func mustPart(b *testing.B, nodes int) *logmodel.Partition {
	b.Helper()
	attrs := make([]logmodel.Attr, nodes)
	nodeIDs := make([]string, nodes)
	sets := make(map[string][]logmodel.Attr, nodes)
	for i := 0; i < nodes; i++ {
		nodeIDs[i] = fmt.Sprintf("P%d", i)
		attrs[i] = logmodel.Attr("a-" + nodeIDs[i])
		sets[nodeIDs[i]] = []logmodel.Attr{attrs[i]}
	}
	schema, err := logmodel.NewSchema(attrs)
	if err != nil {
		b.Fatal(err)
	}
	part, err := logmodel.NewPartition(schema, nodeIDs, sets)
	if err != nil {
		b.Fatal(err)
	}
	return part
}

// --- Logging throughput: the full Figure 2 write path ---

// BenchmarkClusterLogThroughput measures one complete record write:
// quorum-agreed glsn assignment, vertical fragmentation, accumulator
// digest, and fragment distribution with acks.
func BenchmarkClusterLogThroughput(b *testing.B) {
	ex := paperExample(b)
	cl, err := dla.Deploy(dla.ClusterOptions{Partition: ex.Partition})
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close() //nolint:errcheck
	ctx := context.Background()
	user, err := dla.Connect(ctx, cl, dla.SessionConfig{ID: "tp-user", TicketID: "TTP1"})
	if err != nil {
		b.Fatal(err)
	}
	defer user.Close() //nolint:errcheck
	values := ex.Records[0].Values
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := user.Log(ctx, values); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Telemetry overhead: observability cost on the query hot path ---

// BenchmarkTelemetryOverhead measures the end-to-end conjunction-query
// cost with the observability layer recording (spans, counters, leak
// ledger) versus fully disabled, keeping the per-query price of the
// zero-plaintext telemetry an auditable artifact row.
func BenchmarkTelemetryOverhead(b *testing.B) {
	rig := deployLoaded(b, 25)
	ctx := context.Background()
	const criteria = `Tid = "T1100265" AND C1 < 30 AND id = "U1"`
	for _, mode := range []struct {
		name string
		on   bool
	}{{"on", true}, {"off", false}} {
		b.Run(mode.name, func(b *testing.B) {
			telemetry.SetEnabled(mode.on)
			defer telemetry.SetEnabled(true)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := rig.auditor.Query(ctx, criteria); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Intersection scaling with party count ---

func BenchmarkIntersectParties(b *testing.B) {
	for _, parties := range []int{2, 3, 5, 8} {
		b.Run(fmt.Sprintf("parties=%d", parties), func(b *testing.B) {
			ring := make([]string, parties)
			sets := make(map[string][][]byte, parties)
			for i := range ring {
				ring[i] = fmt.Sprintf("P%d", i)
				s := make([][]byte, 8)
				for j := range s {
					s[j] = []byte(fmt.Sprintf("el-%02d", j))
				}
				sets[ring[i]] = s
			}
			benchIntersect(b, ring, sets)
		})
	}
}

// --- Transaction conformance auditing ---

func BenchmarkTransactionConformance(b *testing.B) {
	rig := deployLoaded(b, 25)
	ctx := context.Background()
	rules := []string{`C1 >= 18`, `protocl = "UDP"`}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rig.auditor.CheckTransaction(ctx, "Tid", "T1100265", rules); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation: commutative-group size (design choice in DESIGN.md) ---

func BenchmarkAblationGroupSize(b *testing.B) {
	for _, bits := range []int{768, 1024, 1536, 2048} {
		b.Run(fmt.Sprintf("bits=%d", bits), func(b *testing.B) {
			g, err := mathx.StandardGroup(bits)
			if err != nil {
				b.Fatal(err)
			}
			k, err := commutative.NewPHKey(rand.Reader, g)
			if err != nil {
				b.Fatal(err)
			}
			m := g.HashToQR([]byte("ablation"))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := k.EncryptInt(m); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Ablation: secret-sharing threshold k (design choice) ---

func BenchmarkAblationSumThreshold(b *testing.B) {
	const parties = 8
	for _, k := range []int{2, 5, 8} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			benchSecureSum(b, parties, k)
		})
	}
}
