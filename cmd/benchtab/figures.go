package main

import (
	"context"
	"crypto/rand"
	"crypto/sha256"
	"fmt"
	"math/big"
	"sync"
	"time"

	"confaudit/internal/audit"
	"confaudit/internal/crypto/blind"
	"confaudit/internal/crypto/commutative"
	"confaudit/internal/evidence"
	"confaudit/internal/logmodel"
	"confaudit/internal/mathx"
	"confaudit/internal/query"
	"confaudit/internal/smc/compare"
	"confaudit/internal/smc/intersect"
	"confaudit/internal/smc/smctest"
	"confaudit/internal/transport"
	"confaudit/pkg/dla"
)

func runFigures(which string) error {
	want := func(n string) bool { return which == "all" || which == n }
	type fig struct {
		n  string
		fn func() error
	}
	for _, f := range []fig{
		{"1", figure1}, {"2", figure2}, {"3", figure3}, {"4", figure4},
		{"5", figure5}, {"6", figure6}, {"7", figure7},
	} {
		if want(f.n) {
			if err := f.fn(); err != nil {
				return fmt.Errorf("figure %s: %w", f.n, err)
			}
		}
	}
	return nil
}

// figure1 demonstrates the centralized auditing model baseline.
func figure1() error {
	section("FIGURE 1 — CENTRALIZED AUDITING MODEL (baseline)")
	ex, err := logmodel.NewPaperExample()
	if err != nil {
		return err
	}
	c := audit.NewCentralized()
	for _, rec := range ex.Records {
		c.Store(rec)
	}
	fmt.Printf("single auditor holds ALL %d complete records (absolute trust required)\n", c.Len())
	got, err := c.Query(`protocl = "UDP" AND id = "U1"`)
	if err != nil {
		return err
	}
	fmt.Printf("query protocl=UDP AND id=U1 -> %v\n", got)
	total, err := c.Aggregate("*", audit.AggSum, "C1")
	if err != nil {
		return err
	}
	fmt.Printf("sum(C1) over all records -> %.0f\n", total)
	fmt.Println("weakness: the auditor sees every raw attribute of every record.")
	return nil
}

// figure2 runs the full DLA architecture end to end.
func figure2() error {
	section("FIGURE 2 — DISTRIBUTED ONLINE CONFIDENTIAL AUDITING (DLA)")
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	ex, err := logmodel.NewPaperExample()
	if err != nil {
		return err
	}
	cl, err := dla.Deploy(dla.ClusterOptions{Partition: ex.Partition})
	if err != nil {
		return err
	}
	defer cl.Close() //nolint:errcheck
	fmt.Printf("DLA subsystem: %v (leader/sequencer: %s)\n", cl.Roster(), cl.Roster()[0])
	user, err := dla.Connect(ctx, cl, dla.SessionConfig{ID: "u_j", TicketID: "T1"})
	if err != nil {
		return err
	}
	defer user.Close() //nolint:errcheck
	for _, rec := range ex.Records {
		if _, err := user.Log(ctx, rec.Values); err != nil {
			return err
		}
	}
	fmt.Println("application subsystem logged 5 records; fragments spread over P0..P3")
	for _, node := range cl.Roster() {
		n, _ := cl.Deployment().Node(node)
		frag, _ := n.Fragment(0x139aef78)
		fmt.Printf("  %s stores %d attribute(s) of glsn 139aef78\n", node, len(frag.Values))
	}
	auditor, err := dla.Connect(ctx, cl, dla.SessionConfig{ID: "auditor", TicketID: "TA", Ops: []dla.Op{dla.OpRead}})
	if err != nil {
		return err
	}
	defer auditor.Close() //nolint:errcheck
	got, err := auditor.Query(ctx, `protocl = "UDP" AND id = "U1"`)
	if err != nil {
		return err
	}
	fmt.Printf("confidential audit of T: matching glsns %v (no raw data moved)\n", got)
	return nil
}

// figure3 shows the query decomposition of Figure 3.
func figure3() error {
	section("FIGURE 3 — DISTRIBUTED CONFIDENTIAL AUDITING QUERY PROCESSING")
	ex, err := logmodel.NewPaperExample()
	if err != nil {
		return err
	}
	criteria := `C1 > 30 AND Tid = "T1100265" AND (time = "20:18:35/05/12/2002" OR id = "U1") AND C2 < C1`
	fmt.Printf("auditing criteria Q from u_j:\n  %s\n", criteria)
	expr, err := query.Parse(criteria)
	if err != nil {
		return err
	}
	norm, err := query.Normalize(expr)
	if err != nil {
		return err
	}
	fmt.Printf("normalized conjunctive form Q_N with %d subqueries:\n", len(norm.Clauses))
	plans, err := query.Classify(norm, ex.Partition)
	if err != nil {
		return err
	}
	for i, p := range plans {
		role := "local (single DLA node)"
		if p.Cross {
			role = "cross (relaxed secure distributed computation)"
		}
		fmt.Printf("  SQ%d: %-58s -> %v  [%s]\n", i, p.Clause.String(), p.Nodes, role)
	}
	fmt.Println("conjunction of SQ_i processed by secure set intersection keyed by glsn")
	return nil
}

// figure4 reproduces the three-node secure set intersection trace.
func figure4() error {
	section("FIGURE 4 — SECURE SET INTERSECTION (exact paper example)")
	g := mathx.Oakley768
	k1, err := commutative.NewPHKey(rand.Reader, g)
	if err != nil {
		return err
	}
	k2, err := commutative.NewPHKey(rand.Reader, g)
	if err != nil {
		return err
	}
	k3, err := commutative.NewPHKey(rand.Reader, g)
	if err != nil {
		return err
	}
	sets := map[string][]string{
		"P1": {"c", "d", "e"},
		"P2": {"d", "e", "f"},
		"P3": {"e", "f", "g"},
	}
	fmt.Printf("S1=%v  S2=%v  S3=%v\n", sets["P1"], sets["P2"], sets["P3"])

	enc := func(keys []*commutative.PHKey, el string) *big.Int {
		v := g.HashToQR([]byte(el))
		for _, k := range keys {
			v, _ = k.EncryptInt(v) //nolint:errcheck // inputs are valid group elements
		}
		return v
	}
	short := func(v *big.Int) string {
		s := fmt.Sprintf("%x", v)
		if len(s) > 12 {
			return s[:12] + "..."
		}
		return s
	}
	fmt.Println("\nhop-by-hop encryption of the common element e:")
	fmt.Printf("  E1(e)    = %s\n", short(enc([]*commutative.PHKey{k1}, "e")))
	fmt.Printf("  E21(e)   = %s\n", short(enc([]*commutative.PHKey{k1, k2}, "e")))
	fmt.Printf("  E321(e)  = %s\n", short(enc([]*commutative.PHKey{k1, k2, k3}, "e")))
	fmt.Printf("  E132(e)  = %s\n", short(enc([]*commutative.PHKey{k2, k3, k1}, "e")))
	fmt.Printf("  E213(e)  = %s\n", short(enc([]*commutative.PHKey{k3, k1, k2}, "e")))
	e321 := enc([]*commutative.PHKey{k1, k2, k3}, "e")
	e132 := enc([]*commutative.PHKey{k2, k3, k1}, "e")
	e213 := enc([]*commutative.PHKey{k3, k1, k2}, "e")
	fmt.Printf("E132(e) = E321(e) = E213(e): %v (eq. 6 order independence)\n",
		e321.Cmp(e132) == 0 && e132.Cmp(e213) == 0)

	// And the full three-party protocol over the simulated network.
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	cfg := intersect.Config{
		Group:     g,
		Ring:      []string{"P1", "P2", "P3"},
		Receivers: []string{"P1", "P2", "P3"},
		Session:   "fig4",
	}
	results, err := smctest.RunParties(ctx, cfg.Ring, func(ctx context.Context, id string, mb *transport.Mailbox) ([]string, error) {
		local := make([][]byte, len(sets[id]))
		for i, e := range sets[id] {
			local[i] = []byte(e)
		}
		res, err := intersect.Run(ctx, mb, cfg, local)
		if err != nil {
			return nil, err
		}
		var plain []string
		for _, p := range res.Plaintext {
			plain = append(plain, string(p))
		}
		return plain, nil
	})
	if err != nil {
		return err
	}
	fmt.Printf("protocol run over the network: every receiver computed S1∩S2∩S3 = %v\n", results["P1"])
	return nil
}

// figure5 demonstrates secure equality checking (§3.2): both the
// |S|=1 intersection route and the randomized-mapping TTP route.
func figure5() error {
	section("§3.2 SECURE EQUALITY CHECKING (the text's 'Figure 5' reference)")
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	cfg := compare.EqualityConfig{
		P:       big.NewInt(2305843009213693951),
		Holders: [2]string{"R", "M"},
		TTP:     "TTP",
		Session: "fig5",
	}
	x := big.NewInt(45002) // X_R = X_M
	verdicts, err := smctest.RunParties(ctx, []string{"R", "M", "TTP"}, func(ctx context.Context, id string, mb *transport.Mailbox) (bool, error) {
		if id == "TTP" {
			return false, compare.ServeEqual(ctx, mb, cfg)
		}
		return compare.Equal(ctx, mb, cfg, x)
	})
	if err != nil {
		return err
	}
	fmt.Printf("X_R = X_M = 45002 held privately; TTP compared W=(aY+b) mod p\n")
	fmt.Printf("TTP verdict (without learning X): equal = %v\n", verdicts["R"])
	return nil
}

// figure6 rebuilds the evidence chain of Figure 6.
func figure6() error {
	section("FIGURE 6 — UNDENIABLE EVIDENCE CHAIN FOR DLA MEMBERSHIP")
	chain, _, err := buildChain(4)
	if err != nil {
		return err
	}
	if err := chain.Verify(); err != nil {
		return err
	}
	fmt.Printf("chain verified: %d members joined through %d evidence pieces\n",
		len(chain.Members()), len(chain.Pieces))
	for i := range chain.Pieces {
		p := &chain.Pieces[i]
		fmt.Printf("  e%d: inviter=%s joiner=%s terms=%q\n",
			i+1, shortPseudonym(p.Inviter), shortPseudonym(p.Joiner), p.Terms.Proposal)
	}
	tail, err := chain.Tail()
	if err != nil {
		return err
	}
	fmt.Printf("invite authority now at chain tail %s\n", shortPseudonym(tail))
	return nil
}

// shortPseudonym renders a stable 12-hex-digit handle for a pseudonym.
func shortPseudonym(p evidence.Pseudonym) string {
	sum := sha256.Sum256(p.Bytes())
	return fmt.Sprintf("%x", sum[:6])
}

// figure7 narrates the three-way PP/SC/RE handshake.
func figure7() error {
	section("FIGURE 7 — r-BINDING OF MEMBERSHIP (PP / SC / RE handshake)")
	chain, members, err := buildChain(2)
	if err != nil {
		return err
	}
	p := &chain.Pieces[0]
	fmt.Println("phase 1  PP: P_y -> P_x  policy proposal + inviter credential")
	fmt.Println("phase 2  SC: P_x -> P_y  service commitment + joiner credential + signature")
	fmt.Println("phase 3  RE: P_y -> P_x  countersigned evidence; invite authority passes to P_x")
	fmt.Printf("evidence piece verifies (f(e) =? 1): %v\n", p.Verify(chain.CA) == nil)
	fmt.Printf("tokens anonymous toward CA yet verifiable (g(t) =? 1): %v\n",
		blind.Verify(chain.CA, members[0].Pseudonym().Bytes(), members[0].Token()) == nil)
	return nil
}

// buildChain constructs an n-member evidence chain over a fresh network.
func buildChain(n int) (*evidence.Chain, []*evidence.Member, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	ca, err := blind.NewAuthority(rand.Reader, 1024)
	if err != nil {
		return nil, nil, err
	}
	members := make([]*evidence.Member, n)
	for i := range members {
		if members[i], err = evidence.NewMember(rand.Reader, 1024, ca.Public(), ca.SignBlinded); err != nil {
			return nil, nil, err
		}
	}
	net := transport.NewMemNetwork()
	defer net.Close() //nolint:errcheck
	mbs := make([]*transport.Mailbox, n)
	for i := range mbs {
		ep, err := net.Endpoint(fmt.Sprintf("N%d", i))
		if err != nil {
			return nil, nil, err
		}
		mbs[i] = transport.NewMailbox(ep)
		defer mbs[i].Close() //nolint:errcheck
	}
	chain := &evidence.Chain{CA: ca.Public()}
	for i := 1; i < n; i++ {
		session := fmt.Sprintf("join-%d", i)
		var (
			wg      sync.WaitGroup
			piece   *evidence.Piece
			invErr  error
			joinErr error
		)
		wg.Add(2)
		go func(inv int) {
			defer wg.Done()
			piece, invErr = evidence.Invite(ctx, mbs[inv], session, members[inv], chain,
				fmt.Sprintf("N%d", inv+1), "serve logging and auditing")
		}(i - 1)
		go func(join int) {
			defer wg.Done()
			_, joinErr = evidence.Join(ctx, mbs[join], session, members[join],
				fmt.Sprintf("N%d", join-1), []string{"logging", "auditing"})
		}(i)
		wg.Wait()
		if invErr != nil {
			return nil, nil, invErr
		}
		if joinErr != nil {
			return nil, nil, joinErr
		}
		chain.Pieces = append(chain.Pieces, *piece)
	}
	return chain, members, nil
}
