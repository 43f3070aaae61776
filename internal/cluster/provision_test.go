package cluster

import (
	"context"
	"crypto/ed25519"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"confaudit/internal/logmodel"
	"confaudit/internal/ticket"
	"confaudit/internal/transport"
)

func TestProvisionRoundTrip(t *testing.T) {
	boot := sharedBootstrap(t)
	dir := t.TempDir()
	addrs := map[string]string{"P0": "h:1", "P1": "h:2", "P2": "h:3", "P3": "h:4"}
	common, nodes, issuer := boot.Provision(addrs)
	if err := SaveProvision(dir, common, nodes, issuer); err != nil {
		t.Fatal(err)
	}

	common2, err := LoadCommon(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(common2.Roster) != 4 || common2.Addresses["P2"] != "h:3" {
		t.Fatalf("common round trip: %+v", common2)
	}
	if common2.FirstGLSN != boot.FirstGLSN {
		t.Fatalf("FirstGLSN = %v", common2.FirstGLSN)
	}
	np, err := LoadNode(dir, "P1")
	if err != nil {
		t.Fatal(err)
	}
	if np.ID != "P1" {
		t.Fatalf("node ID = %q", np.ID)
	}
	ip, err := LoadIssuer(dir)
	if err != nil {
		t.Fatal(err)
	}

	restored, err := RestoreBootstrap(common2, map[string]*NodeProvision{"P1": np}, ip)
	if err != nil {
		t.Fatal(err)
	}
	// The restored bootstrap must produce valid node configs and working
	// keys: sign with the restored key, verify under the original pub.
	cfg := restored.NodeConfig("P1")
	if cfg.Signer == nil || cfg.TicketIssuer == nil {
		t.Fatal("restored config incomplete")
	}
	cert := &Certificate{
		Statement: []byte("statement"),
		Votes:     map[string][]byte{"P1": ed25519.Sign(restored.Signers["P1"], []byte("statement"))},
	}
	if err := verifyCertificate(boot.PeerKeys, 1, cert, "", nil); err != nil {
		t.Fatalf("restored key signature rejected: %v", err)
	}
	// Restored issuer mints tickets that verify under the original key.
	tk, err := restored.Issuer.Issue("TX", "holder", ticket.OpRead)
	if err != nil {
		t.Fatal(err)
	}
	if err := ticket.Verify(boot.Issuer.Public(), tk); err != nil {
		t.Fatalf("restored issuer ticket rejected: %v", err)
	}
}

func TestRestoreBootstrapWithoutIssuer(t *testing.T) {
	boot := sharedBootstrap(t)
	common, nodes, _ := boot.Provision(map[string]string{"P0": "a", "P1": "b", "P2": "c", "P3": "d"})
	restored, err := RestoreBootstrap(common, map[string]*NodeProvision{"P0": nodes["P0"]}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Issuer != nil {
		t.Fatal("issuer should be nil on node-side restore")
	}
	if restored.IssuerPub == nil {
		t.Fatal("issuer public key missing")
	}
	// NodeConfig still works (the dlad crash regression).
	cfg := restored.NodeConfig("P0")
	if cfg.TicketIssuer == nil {
		t.Fatal("NodeConfig lost the issuer public key")
	}
}

func TestRestoreBootstrapErrors(t *testing.T) {
	boot := sharedBootstrap(t)
	common, nodes, issuer := boot.Provision(map[string]string{"P0": "a", "P1": "b", "P2": "c", "P3": "d"})

	bad := *common
	bad.GroupBits = 123
	if _, err := RestoreBootstrap(&bad, nodes, issuer); err == nil {
		t.Fatal("bad group bits accepted")
	}
	bad = *common
	bad.Partition.Nodes = nil
	if _, err := RestoreBootstrap(&bad, nodes, issuer); err == nil {
		t.Fatal("broken partition accepted")
	}
	bad = *common
	bad.AccX0 = nil
	if _, err := RestoreBootstrap(&bad, nodes, issuer); err == nil {
		t.Fatal("missing accumulator base accepted")
	}
}

// TestRestoreRefusesMalformedKeys pins the hostile-key boundary of
// provisioning: a common.json carrying a 31-byte peer key, a short
// issuer key or node seed, a seed that does not match its roster key,
// and a file still in the RSA key format are each refused with
// ErrBadProvision, never a panic inside ed25519.
func TestRestoreRefusesMalformedKeys(t *testing.T) {
	boot := sharedBootstrap(t)
	addrs := map[string]string{"P0": "a", "P1": "b", "P2": "c", "P3": "d"}
	common, nodes, issuer := boot.Provision(addrs)

	dir := t.TempDir()
	short := *common
	short.PeerKeys = map[string]ed25519.PublicKey{}
	for id, pk := range common.PeerKeys {
		short.PeerKeys[id] = pk
	}
	short.PeerKeys["P2"] = short.PeerKeys["P2"][:ed25519.PublicKeySize-1]
	if err := SaveProvision(dir, &short, nodes, issuer); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadCommon(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RestoreBootstrap(loaded, nodes, issuer); !errors.Is(err, ErrBadProvision) {
		t.Fatalf("31-byte peer key in common.json: err = %v, want ErrBadProvision", err)
	}

	bad := *common
	bad.IssuerPub = bad.IssuerPub[:16]
	if _, err := RestoreBootstrap(&bad, nodes, issuer); !errors.Is(err, ErrBadProvision) {
		t.Fatalf("16-byte issuer key: err = %v, want ErrBadProvision", err)
	}
	if _, err := RestoreBootstrap(common, map[string]*NodeProvision{"P0": {ID: "P0", Seed: nodes["P0"].Seed[1:]}}, nil); !errors.Is(err, ErrBadProvision) {
		t.Fatalf("31-byte node seed: err = %v, want ErrBadProvision", err)
	}
	if _, err := RestoreBootstrap(common, map[string]*NodeProvision{"P0": {ID: "P0", Seed: nodes["P1"].Seed}}, nil); !errors.Is(err, ErrBadProvision) {
		t.Fatalf("P1's seed filed as P0's: err = %v, want ErrBadProvision", err)
	}
	if _, err := RestoreBootstrap(common, nil, &IssuerProvision{Seed: issuer.Seed[:8]}); !errors.Is(err, ErrBadProvision) {
		t.Fatalf("8-byte issuer seed: err = %v, want ErrBadProvision", err)
	}

	// Files written before node keys moved to Ed25519 held RSA key
	// objects; they are refused by name, not misread.
	old := t.TempDir()
	if err := os.WriteFile(filepath.Join(old, CommonFile), []byte(`{"roster":["P0"],"peer_keys":{"P0":{"N":3233,"E":17}},"issuer_pub":{"N":3233,"E":17}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCommon(old); !errors.Is(err, ErrBadProvision) {
		t.Fatalf("RSA-format common.json: err = %v, want ErrBadProvision", err)
	}
	if err := os.WriteFile(filepath.Join(old, NodeFile("P0")), []byte(`{"id":"P0","key":{"n":3233,"e":17,"d":2753}}`), 0o600); err != nil {
		t.Fatal(err)
	}
	np, err := LoadNode(old, "P0")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RestoreBootstrap(common, map[string]*NodeProvision{"P0": np}, nil); !errors.Is(err, ErrBadProvision) {
		t.Fatalf("RSA-format node file: err = %v, want ErrBadProvision", err)
	}
}

func TestLoadErrors(t *testing.T) {
	dir := t.TempDir()
	if _, err := LoadCommon(dir); err == nil {
		t.Fatal("missing common file accepted")
	}
	if _, err := LoadNode(dir, "P0"); err == nil {
		t.Fatal("missing node file accepted")
	}
	if _, err := LoadIssuer(dir); err == nil {
		t.Fatal("missing issuer file accepted")
	}
}

// TestProvisionedClusterRuns boots a cluster entirely from files on
// disk — the dlad code path — over the in-memory network.
func TestProvisionedClusterRuns(t *testing.T) {
	boot := sharedBootstrap(t)
	dir := t.TempDir()
	addrs := map[string]string{"P0": "x", "P1": "x", "P2": "x", "P3": "x"}
	common, nodeProv, issuer := boot.Provision(addrs)
	if err := SaveProvision(dir, common, nodeProv, issuer); err != nil {
		t.Fatal(err)
	}

	net := transport.NewMemNetwork()
	defer net.Close() //nolint:errcheck
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	runCtx, runCancel := context.WithCancel(ctx)
	defer runCancel()
	nodes := make([]*Node, 0, 4)
	for _, id := range common.Roster {
		common2, err := LoadCommon(dir)
		if err != nil {
			t.Fatal(err)
		}
		np, err := LoadNode(dir, id)
		if err != nil {
			t.Fatal(err)
		}
		restored, err := RestoreBootstrap(common2, map[string]*NodeProvision{id: np}, nil)
		if err != nil {
			t.Fatal(err)
		}
		ep, err := net.Endpoint(id)
		if err != nil {
			t.Fatal(err)
		}
		mb := transport.NewMailbox(ep)
		node, err := New(restored.NodeConfig(id), mb)
		if err != nil {
			t.Fatal(err)
		}
		node.Start(runCtx)
		nodes = append(nodes, node)
	}
	defer func() {
		runCancel()
		for _, n := range nodes {
			n.Wait()
		}
	}()

	// Client provisioned from the issuer file logs a record.
	ip, err := LoadIssuer(dir)
	if err != nil {
		t.Fatal(err)
	}
	iss, err := ticket.NewIssuerFromSeed(ip.Seed)
	if err != nil {
		t.Fatal(err)
	}
	tk, err := iss.Issue("T1", "u0", ticket.OpWrite, ticket.OpRead)
	if err != nil {
		t.Fatal(err)
	}
	ep, err := net.Endpoint("u0")
	if err != nil {
		t.Fatal(err)
	}
	mb := transport.NewMailbox(ep)
	defer mb.Close() //nolint:errcheck
	part, err := logmodel.FromSpec(common.Partition)
	if err != nil {
		t.Fatal(err)
	}
	client, err := OpenClient(mb, ClientConfig{Roster: common.Roster, Partition: part, Accumulator: boot.AccParams, Ticket: tk})
	if err != nil {
		t.Fatal(err)
	}
	if err := client.RegisterTicket(ctx); err != nil {
		t.Fatal(err)
	}
	g, err := client.Log(ctx, map[logmodel.Attr]logmodel.Value{"id": logmodel.String("U1")})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := client.Read(ctx, g)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Values["id"].S != "U1" {
		t.Fatalf("read back %v", rec.Values)
	}
}
