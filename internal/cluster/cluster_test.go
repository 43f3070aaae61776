package cluster

import (
	"context"
	"crypto/ed25519"
	"crypto/rand"
	"errors"
	"math/big"
	"strings"
	"sync"
	"testing"
	"time"

	"confaudit/internal/logmodel"
	"confaudit/internal/mathx"
	"confaudit/internal/ticket"
	"confaudit/internal/transport"
	"confaudit/internal/wire"
)

// testCluster is a running in-memory DLA cluster plus helpers.
type testCluster struct {
	boot   *Bootstrap
	net    *transport.MemNetwork
	nodes  map[string]*Node
	cancel context.CancelFunc
}

var (
	bootOnce sync.Once
	bootVal  *Bootstrap
	bootErr  error
)

// sharedBootstrap amortizes the accumulator keygen across tests.
func sharedBootstrap(t testing.TB) *Bootstrap {
	t.Helper()
	bootOnce.Do(func() {
		ex, err := logmodel.NewPaperExample()
		if err != nil {
			bootErr = err
			return
		}
		bootVal, bootErr = NewBootstrap(rand.Reader, ex.Partition, mathx.Oakley768)
	})
	if bootErr != nil {
		t.Fatalf("bootstrap: %v", bootErr)
	}
	return bootVal
}

func startCluster(t *testing.T) *testCluster {
	t.Helper()
	boot := sharedBootstrap(t)
	net := transport.NewMemNetwork()
	ctx, cancel := context.WithCancel(context.Background())
	tc := &testCluster{boot: boot, net: net, nodes: make(map[string]*Node), cancel: cancel}
	for _, id := range boot.Roster {
		ep, err := net.Endpoint(id)
		if err != nil {
			t.Fatal(err)
		}
		mb := transport.NewMailbox(ep)
		node, err := New(boot.NodeConfig(id), mb)
		if err != nil {
			t.Fatal(err)
		}
		node.Start(ctx)
		tc.nodes[id] = node
	}
	t.Cleanup(func() {
		cancel()
		net.Close() //nolint:errcheck
		for _, n := range tc.nodes {
			n.Wait()
		}
	})
	return tc
}

func (tc *testCluster) client(t *testing.T, clientID, ticketID string, ops ...ticket.Op) *Client {
	t.Helper()
	tk, err := tc.boot.Issuer.Issue(ticketID, clientID, ops...)
	if err != nil {
		t.Fatal(err)
	}
	return tc.openClient(t, clientID, ClientConfig{Ticket: tk})
}

// openClient attaches a client on a new endpoint clientID, with cfg's
// roster, partition and accumulator filled from the cluster's bootstrap.
func (tc *testCluster) openClient(t *testing.T, clientID string, cfg ClientConfig) *Client {
	t.Helper()
	ep, err := tc.net.Endpoint(clientID)
	if err != nil {
		t.Fatal(err)
	}
	mb := transport.NewMailbox(ep)
	t.Cleanup(func() { mb.Close() }) //nolint:errcheck
	cfg.Roster, cfg.Partition, cfg.Accumulator = tc.boot.Roster, tc.boot.Partition, tc.boot.AccParams
	c, err := OpenClient(mb, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() }) //nolint:errcheck
	return c
}

func testCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	t.Cleanup(cancel)
	return ctx
}

func TestEndToEndLogAndRead(t *testing.T) {
	tc := startCluster(t)
	ctx := testCtx(t)
	c := tc.client(t, "u0", "T1", ticket.OpWrite, ticket.OpRead)
	if err := c.RegisterTicket(ctx); err != nil {
		t.Fatal(err)
	}
	values := map[logmodel.Attr]logmodel.Value{
		"time":    logmodel.String("20:18:35/05/12/2002"),
		"id":      logmodel.String("U1"),
		"protocl": logmodel.String("UDP"),
		"Tid":     logmodel.String("T1100265"),
		"C1":      logmodel.Int(20),
		"C2":      logmodel.Float(23.45),
		"C3":      logmodel.String("signature"),
	}
	g, err := c.Log(ctx, values)
	if err != nil {
		t.Fatal(err)
	}
	if g != 0x139aef78 {
		t.Fatalf("first glsn = %s, want 139aef78 (paper's first example)", g)
	}
	rec, err := c.Read(ctx, g)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Values) != len(values) {
		t.Fatalf("read back %d attrs, want %d", len(rec.Values), len(values))
	}
	for a, v := range values {
		if !rec.Values[a].Equal(v) {
			t.Fatalf("attr %q = %v, want %v", a, rec.Values[a], v)
		}
	}
}

func TestGLSNMonotonicAcrossClients(t *testing.T) {
	tc := startCluster(t)
	ctx := testCtx(t)
	c1 := tc.client(t, "u1", "TA", ticket.OpWrite)
	c2 := tc.client(t, "u2", "TB", ticket.OpWrite)
	if err := c1.RegisterTicket(ctx); err != nil {
		t.Fatal(err)
	}
	if err := c2.RegisterTicket(ctx); err != nil {
		t.Fatal(err)
	}
	seen := make(map[logmodel.GLSN]bool)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, c := range []*Client{c1, c2} {
		wg.Add(1)
		go func(c *Client) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				g, err := c.RequestGLSNRange(ctx, 1)
				if err != nil {
					t.Errorf("RequestGLSNRange: %v", err)
					return
				}
				mu.Lock()
				if seen[g] {
					t.Errorf("duplicate glsn %s", g)
				}
				seen[g] = true
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	if len(seen) != 20 {
		t.Fatalf("assigned %d distinct glsns, want 20", len(seen))
	}
}

func TestStoreRejectsForeignGLSN(t *testing.T) {
	tc := startCluster(t)
	ctx := testCtx(t)
	honest := tc.client(t, "u3", "TH", ticket.OpWrite, ticket.OpRead)
	attacker := tc.client(t, "mallory", "TM", ticket.OpWrite)
	if err := honest.RegisterTicket(ctx); err != nil {
		t.Fatal(err)
	}
	if err := attacker.RegisterTicket(ctx); err != nil {
		t.Fatal(err)
	}
	g, err := honest.Log(ctx, map[logmodel.Attr]logmodel.Value{"id": logmodel.String("U1")})
	if err != nil {
		t.Fatal(err)
	}
	// Attacker sends the id owner a one-item store batch overwriting the
	// honest record under its own ticket — but the glsn belongs to the
	// honest ticket.
	node := tc.boot.Partition.Owner("id")
	item := batchItem{Fragment: logmodel.Fragment{GLSN: g, Values: map[logmodel.Attr]logmodel.Value{"id": logmodel.String("FORGED")}}}
	msg, err := transport.NewMessage(node, MsgLogStoreBatch, "", &storeBatchBody{TicketID: attacker.tk.ID, Items: []batchItem{item}})
	if err != nil {
		t.Fatal(err)
	}
	err = attacker.deliverStore(ctx, msg, g, 1, AppendOptions{}.withDefaults(), false)
	if err == nil {
		t.Fatal("store under a foreign glsn accepted")
	}
	if !strings.Contains(err.Error(), "not assigned") {
		t.Fatalf("unexpected error: %v", err)
	}
	if frag, _ := tc.nodes[node].Fragment(g); frag.Values["id"].S != "U1" {
		t.Fatalf("honest fragment overwritten: %v", frag.Values)
	}
}

// TestStoreRefusesItemWithoutExponents pins the check at the door: a
// store item missing its digest exponent refuses the whole batch before
// any state changes, instead of being installed and then failing every
// integrity check with ErrNoDigest. So does an item carrying an
// attribute outside the node's A_i, and one in the old layout that
// ends in a witness exponent.
func TestStoreRefusesItemWithoutExponents(t *testing.T) {
	tc := startCluster(t)
	ctx := testCtx(t)
	c := tc.client(t, "u-door", "TDOOR", ticket.OpWrite, ticket.OpRead)
	if err := c.RegisterTicket(ctx); err != nil {
		t.Fatal(err)
	}
	g, err := c.RequestGLSNRange(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, items := referenceItems(c.part, c.acc, nil, g, map[logmodel.Attr]logmodel.Value{"id": logmodel.String("U1")})
	node := tc.boot.Partition.Owner("id")
	full := items[node]
	foreign := logmodel.Fragment{GLSN: g, Node: node, Values: map[logmodel.Attr]logmodel.Value{
		"id": logmodel.String("U1"),
		"C1": logmodel.Int(7),
	}}
	if tc.boot.Partition.Owner("C1") == node {
		t.Fatal("fixture: C1 and id share a node")
	}
	for name, tt := range map[string]struct {
		item batchItem
		want string
	}{
		"no digest exponent":    {batchItem{Fragment: full.Fragment}, "lacks its digest exponent"},
		"attribute outside A_i": {batchItem{Fragment: foreign, DigestExp: full.DigestExp}, `attribute "C1" outside A_` + node},
		"witness exponent last": {batchItem{view: itemView{run: wire.AppendBig(appendBatchItem(nil, &full), big.NewInt(7))}}, "malformed"},
	} {
		msg, err := transport.NewMessage(node, MsgLogStoreBatch, "", &storeBatchBody{TicketID: c.tk.ID, Items: []batchItem{tt.item}})
		if err != nil {
			t.Fatal(err)
		}
		if err := c.deliverStore(ctx, msg, g, 1, AppendOptions{}.withDefaults(), false); err == nil || !strings.Contains(err.Error(), tt.want) {
			t.Fatalf("%s: store = %v, want a refusal naming %q", name, err, tt.want)
		}
		if _, ok := tc.nodes[node].Fragment(g); ok {
			t.Fatalf("%s: refused item installed", name)
		}
	}
}

func TestReadRequiresGrant(t *testing.T) {
	tc := startCluster(t)
	ctx := testCtx(t)
	owner := tc.client(t, "u4", "TO", ticket.OpWrite, ticket.OpRead)
	snoop := tc.client(t, "snoop", "TS", ticket.OpWrite, ticket.OpRead)
	if err := owner.RegisterTicket(ctx); err != nil {
		t.Fatal(err)
	}
	if err := snoop.RegisterTicket(ctx); err != nil {
		t.Fatal(err)
	}
	g, err := owner.Log(ctx, map[logmodel.Attr]logmodel.Value{"C1": logmodel.Int(7)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := snoop.Read(ctx, g); err == nil {
		t.Fatal("read of a foreign record accepted")
	}
	if _, err := owner.Read(ctx, g); err != nil {
		t.Fatalf("owner read failed: %v", err)
	}
}

func TestWriteRequiresWriteOp(t *testing.T) {
	tc := startCluster(t)
	ctx := testCtx(t)
	reader := tc.client(t, "u5", "TR", ticket.OpRead)
	if err := reader.RegisterTicket(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := reader.RequestGLSNRange(ctx, 1); err == nil {
		t.Fatal("read-only ticket obtained a glsn")
	}
}

func TestUnregisteredTicketRefused(t *testing.T) {
	tc := startCluster(t)
	ctx := testCtx(t)
	ghost := tc.client(t, "u6", "TGhost", ticket.OpWrite)
	// Never registers; sequencer must refuse.
	if _, err := ghost.RequestGLSNRange(ctx, 1); err == nil {
		t.Fatal("unregistered ticket obtained a glsn")
	}
}

func TestForgedTicketRefusedAtRegistration(t *testing.T) {
	tc := startCluster(t)
	ctx := testCtx(t)
	ep, err := tc.net.Endpoint("forger")
	if err != nil {
		t.Fatal(err)
	}
	mb := transport.NewMailbox(ep)
	defer mb.Close() //nolint:errcheck
	forged := &ticket.Ticket{ID: "TF", Holder: "forger", Ops: []ticket.Op{ticket.OpWrite}, Sig: make([]byte, ed25519.SignatureSize)}
	c, err := OpenClient(mb, ClientConfig{Roster: tc.boot.Roster, Partition: tc.boot.Partition, Accumulator: tc.boot.AccParams, Ticket: forged})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.RegisterTicket(ctx); err == nil {
		t.Fatal("forged ticket registered")
	}
}

func TestFragmentsStayWithinNodeAttrs(t *testing.T) {
	tc := startCluster(t)
	ctx := testCtx(t)
	c := tc.client(t, "u7", "TFrag", ticket.OpWrite, ticket.OpRead)
	if err := c.RegisterTicket(ctx); err != nil {
		t.Fatal(err)
	}
	g, err := c.Log(ctx, map[logmodel.Attr]logmodel.Value{
		"time": logmodel.String("t0"),
		"id":   logmodel.String("U9"),
		"C1":   logmodel.Int(5),
	})
	if err != nil {
		t.Fatal(err)
	}
	// Each node stores only its own attribute slice.
	for id, node := range tc.nodes {
		frag, ok := node.Fragment(g)
		if !ok {
			t.Fatalf("node %s missing fragment for %s", id, g)
		}
		allowed := make(map[logmodel.Attr]bool)
		for _, a := range tc.boot.Partition.NodeAttrs(id) {
			allowed[a] = true
		}
		for a := range frag.Values {
			if !allowed[a] {
				t.Fatalf("node %s stores attribute %q outside A_i", id, a)
			}
		}
		if d, ok := node.Digest(g); !ok || d == nil {
			t.Fatalf("node %s missing record digest", id)
		}
	}
}

func TestAccessTableConsistencyAcrossNodes(t *testing.T) {
	tc := startCluster(t)
	ctx := testCtx(t)
	c := tc.client(t, "u8", "TCons", ticket.OpWrite)
	if err := c.RegisterTicket(ctx); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := c.Log(ctx, map[logmodel.Attr]logmodel.Value{"C1": logmodel.Int(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	// All nodes converge to identical consistency elements (§4.1).
	deadline := time.Now().Add(5 * time.Second)
	for {
		var want string
		consistent := true
		for _, id := range tc.boot.Roster {
			rows := tc.nodes[id].AccessTable().ConsistencyElements()
			var sb strings.Builder
			for _, r := range rows {
				sb.Write(r)
				sb.WriteByte('\n')
			}
			if want == "" {
				want = sb.String()
			} else if sb.String() != want {
				consistent = false
			}
		}
		if consistent {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("access tables never converged")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestCertificateVerification(t *testing.T) {
	boot := sharedBootstrap(t)
	stmt := glsnRangeStatement(0x139aef78, 1, "T1")
	sig0 := ed25519.Sign(boot.Signers[boot.Roster[0]], stmt)
	sig1 := ed25519.Sign(boot.Signers[boot.Roster[1]], stmt)
	sig2 := ed25519.Sign(boot.Signers[boot.Roster[2]], stmt)
	cert := &Certificate{
		Statement: stmt,
		Votes: map[string][]byte{
			boot.Roster[0]: sig0,
			boot.Roster[1]: sig1,
			boot.Roster[2]: sig2,
		},
	}
	quorum := Quorum(len(boot.Roster))
	if err := verifyCertificate(boot.PeerKeys, quorum, cert, "", nil); err != nil {
		t.Fatalf("valid certificate rejected: %v", err)
	}
	// Too few votes.
	thin := &Certificate{Statement: stmt, Votes: map[string][]byte{boot.Roster[0]: sig0}}
	if err := verifyCertificate(boot.PeerKeys, quorum, thin, "", nil); err == nil {
		t.Fatal("sub-quorum certificate accepted")
	}
	// Unknown voter.
	alien := &Certificate{Statement: stmt, Votes: map[string][]byte{"mallory": sig0}}
	if err := verifyCertificate(boot.PeerKeys, quorum, alien, "", nil); err == nil {
		t.Fatal("certificate with unknown voter accepted")
	}
	// Tampered statement.
	bad := &Certificate{Statement: []byte("glsnrange|ffff|1|T1"), Votes: cert.Votes}
	if err := verifyCertificate(boot.PeerKeys, quorum, bad, "", nil); err == nil {
		t.Fatal("certificate with mismatched statement accepted")
	}
	// A bit-flipped signature, and signatures one byte short and long.
	flipped := append([]byte(nil), sig2...)
	flipped[17] ^= 0x04
	for name, sig := range map[string][]byte{
		"bit-flipped": flipped,
		"63-byte":     sig2[:ed25519.SignatureSize-1],
		"65-byte":     append(append([]byte(nil), sig2...), 0),
		"nil":         nil,
	} {
		mauled := &Certificate{Statement: stmt, Votes: map[string][]byte{
			boot.Roster[0]: sig0, boot.Roster[1]: sig1, boot.Roster[2]: sig,
		}}
		if err := verifyCertificate(boot.PeerKeys, quorum, mauled, "", nil); err == nil {
			t.Fatalf("certificate with a %s signature accepted", name)
		}
	}
	// A peer key of the wrong length fails verification; it does not
	// panic inside ed25519.
	shortKeys := map[string]ed25519.PublicKey{}
	for id, pk := range boot.PeerKeys {
		shortKeys[id] = pk
	}
	shortKeys[boot.Roster[1]] = shortKeys[boot.Roster[1]][:ed25519.PublicKeySize-1]
	if err := verifyCertificate(shortKeys, quorum, cert, "", nil); err == nil {
		t.Fatal("certificate verified under a 31-byte peer key")
	}
	// Empty.
	if err := verifyCertificate(boot.PeerKeys, quorum, nil, "", nil); err == nil {
		t.Fatal("nil certificate accepted")
	}
	if Quorum(4) != 3 || Quorum(5) != 3 || Quorum(1) != 1 {
		t.Fatal("Quorum math wrong")
	}
}

// TestShortVoteNotCounted runs a proposal round against scripted peers:
// P1 answers with a 63-byte signature, P2 with a valid vote and P3
// refuses. The short vote must not count toward the quorum of three,
// so the round ends in ErrNoQuorum instead of certifying.
func TestShortVoteNotCounted(t *testing.T) {
	boot := sharedBootstrap(t)
	net := transport.NewMemNetwork()
	defer net.Close() //nolint:errcheck
	mbs := map[string]*transport.Mailbox{}
	for _, id := range boot.Roster {
		ep, err := net.Endpoint(id)
		if err != nil {
			t.Fatal(err)
		}
		mbs[id] = transport.NewMailbox(ep)
		defer mbs[id].Close() //nolint:errcheck
	}
	leader, err := New(boot.NodeConfig(boot.Roster[0]), mbs[boot.Roster[0]])
	if err != nil {
		t.Fatal(err)
	}
	ctx := testCtx(t)
	stmt := glsnRangeStatement(0x139aef78, 1, "T1")
	votes := map[string]agreeVoteBody{
		boot.Roster[1]: {Sig: ed25519.Sign(boot.Signers[boot.Roster[1]], stmt)[:ed25519.SignatureSize-1]},
		boot.Roster[2]: {Sig: ed25519.Sign(boot.Signers[boot.Roster[2]], stmt)},
		boot.Roster[3]: {Refused: "no"},
	}
	var wg sync.WaitGroup
	for id, vote := range votes {
		wg.Add(1)
		go func(id string, vote agreeVoteBody) {
			defer wg.Done()
			msg, err := mbs[id].ExpectType(ctx, msgAgreeReq)
			if err != nil {
				t.Error(err)
				return
			}
			if err := mbs[id].SendBody(ctx, msg.From, msgAgreeVote, msg.Session, &vote); err != nil {
				t.Error(err)
			}
		}(id, vote)
	}
	cert, err := leader.propose(ctx, "short-vote", stmt)
	wg.Wait()
	if !errors.Is(err, ErrNoQuorum) {
		t.Fatalf("propose = %v, %v; want ErrNoQuorum (the 63-byte vote must not count)", cert, err)
	}
}

// TestGLSNStatementRoundTrip pins the single grant as a range of one:
// it round-trips, and the retired 3-field "glsn|<seq>|<ticket>" form is
// refused rather than read as a grant.
func TestGLSNStatementRoundTrip(t *testing.T) {
	stmt := glsnRangeStatement(0x139aef78, 1, "T1")
	g, count, tid, err := parseStatement(stmt)
	if err != nil {
		t.Fatal(err)
	}
	if g != 0x139aef78 || count != 1 || tid != "T1" {
		t.Fatalf("parsed %s %d %s", g, count, tid)
	}
	for _, bad := range []string{
		"garbage",
		"glsn|139aef78|T1", // the retired single-grant form
		"glsnrange|zz!|1|T1",
	} {
		if _, _, _, err := parseStatement([]byte(bad)); err == nil {
			t.Fatalf("statement %q parsed", bad)
		}
	}
}

func TestGLSNRangeStatementRoundTrip(t *testing.T) {
	stmt := glsnRangeStatement(0x80, 64, "T2")
	g, count, tid, err := parseStatement(stmt)
	if err != nil {
		t.Fatal(err)
	}
	if g != 0x80 || count != 64 || tid != "T2" {
		t.Fatalf("parsed %s %d %s", g, count, tid)
	}
	for _, bad := range []string{
		"glsnrange|80|0|T2",      // zero count
		"glsnrange|80|-1|T2",     // negative count
		"glsnrange|80|100000|T2", // beyond maxGLSNBatch
		"glsnrange|80|zz|T2",     // junk count
		"glsnrange|80|40",        // missing ticket
	} {
		if _, _, _, err := parseStatement([]byte(bad)); err == nil {
			t.Fatalf("bad range statement %q parsed", bad)
		}
	}
}

func TestTamperFragmentHook(t *testing.T) {
	tc := startCluster(t)
	ctx := testCtx(t)
	c := tc.client(t, "u9", "TT", ticket.OpWrite)
	if err := c.RegisterTicket(ctx); err != nil {
		t.Fatal(err)
	}
	g, err := c.Log(ctx, map[logmodel.Attr]logmodel.Value{"C1": logmodel.Int(42)})
	if err != nil {
		t.Fatal(err)
	}
	p3 := tc.nodes["P3"] // C1 owner
	if !p3.TamperFragment(g, "C1", logmodel.Int(9999)) {
		t.Fatal("tamper hook failed")
	}
	frag, _ := p3.Fragment(g)
	if frag.Values["C1"].I != 9999 {
		t.Fatal("tampering did not take effect")
	}
	if p3.TamperFragment(999999, "C1", logmodel.Int(1)) {
		t.Fatal("tampering an unknown glsn succeeded")
	}
	if p3.TamperFragment(g, "nosuch", logmodel.Int(1)) {
		t.Fatal("tampering an absent attribute succeeded")
	}
}

// TestSequencerToleratesMinorityPartition checks the distributed
// majority agreement: with one of four followers unreachable, glsn
// assignment still reaches quorum (3 of 4) and proceeds.
func TestSequencerToleratesMinorityPartition(t *testing.T) {
	tc := startCluster(t)
	ctx := testCtx(t)
	c := tc.client(t, "quorum-u", "TQ", ticket.OpWrite)
	if err := c.RegisterTicket(ctx); err != nil {
		t.Fatal(err)
	}
	// Cut P3 off after registration. The leader P0 still gathers votes
	// from P1 and P2 plus its own: 3 >= quorum(4).
	tc.net.Partition("P3")
	defer tc.net.Partition()
	g, err := c.RequestGLSNRange(ctx, 1)
	if err != nil {
		t.Fatalf("glsn under minority partition: %v", err)
	}
	if g == 0 {
		t.Fatal("zero glsn")
	}
}

// TestSequencerBlocksWithoutQuorum checks the other side: with two of
// four nodes unreachable no majority exists, and the assignment fails
// rather than diverging.
func TestSequencerBlocksWithoutQuorum(t *testing.T) {
	tc := startCluster(t)
	ctx := testCtx(t)
	c := tc.client(t, "noq-u", "TNQ", ticket.OpWrite)
	if err := c.RegisterTicket(ctx); err != nil {
		t.Fatal(err)
	}
	tc.net.Partition("P2", "P3")
	defer tc.net.Partition()
	shortCtx, cancel := context.WithTimeout(ctx, 3*time.Second)
	defer cancel()
	if _, err := c.RequestGLSNRange(shortCtx, 1); err == nil {
		t.Fatal("glsn assigned without a majority")
	}
}

func TestNodeConfigValidation(t *testing.T) {
	boot := sharedBootstrap(t)
	net := transport.NewMemNetwork()
	defer net.Close() //nolint:errcheck
	ep, err := net.Endpoint("P0")
	if err != nil {
		t.Fatal(err)
	}
	mb := transport.NewMailbox(ep)
	defer mb.Close() //nolint:errcheck

	good := boot.NodeConfig("P0")
	if _, err := New(good, nil); err == nil {
		t.Fatal("nil mailbox accepted")
	}
	bad := good
	bad.ID = "PX"
	if _, err := New(bad, mb); err == nil {
		t.Fatal("node outside roster accepted")
	}
	bad = good
	bad.Partition = nil
	if _, err := New(bad, mb); err == nil {
		t.Fatal("nil partition accepted")
	}
	bad = good
	bad.PeerKeys = nil
	if _, err := New(bad, mb); err == nil {
		t.Fatal("missing peer keys accepted")
	}
	bad = good
	bad.ID = ""
	if _, err := New(bad, mb); err == nil {
		t.Fatal("empty ID accepted")
	}
	// Keys of the wrong length are refused here, not by a panic inside
	// ed25519 on the first vote or ticket.
	bad = good
	bad.Signer = good.Signer[:ed25519.PrivateKeySize-1]
	if _, err := New(bad, mb); err == nil {
		t.Fatal("63-byte signer key accepted")
	}
	bad = good
	bad.PeerKeys = map[string]ed25519.PublicKey{}
	for id, pk := range good.PeerKeys {
		bad.PeerKeys[id] = pk
	}
	bad.PeerKeys["P3"] = bad.PeerKeys["P3"][:ed25519.PublicKeySize-1]
	if _, err := New(bad, mb); err == nil {
		t.Fatal("31-byte peer key accepted")
	}
	bad = good
	bad.TicketIssuer = good.TicketIssuer[:ed25519.PublicKeySize-1]
	if _, err := New(bad, mb); !errors.Is(err, ticket.ErrBadKey) {
		t.Fatalf("31-byte ticket issuer key: err = %v, want ticket.ErrBadKey", err)
	}
}
