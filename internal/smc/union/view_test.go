package union

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"confaudit/internal/crypto/commutative"
	"confaudit/internal/mathx"
	"confaudit/internal/smc"
	"confaudit/internal/smc/smctest"
	"confaudit/internal/transport"
)

// TestUnionTwoMemberViews rebuilds, from a tapped two-member run whose
// only receiver is the collector, what each member learns about the
// other's set. The collector R rebuilds the other member's whole set: its own
// returned ciphertexts matched against the collected ones give the
// shared elements (the ring keeps each set's order, so R knows the
// plaintext behind each of its ciphertexts), and the union minus its
// own set gives the rest. The other member O rebuilds S_O ∩ S_R by
// matching the ciphertexts it finished for R against its own returned
// set. This is why a two-member union need not run ∪s: sending S_O to
// R in the clear discloses nothing more.
func TestUnionTwoMemberViews(t *testing.T) {
	type relayed struct {
		from, to, origin string
		blocks           [][]byte
	}
	var (
		mu      sync.Mutex
		relays  []relayed
		collect [][]byte
	)
	tap := func(m transport.Message) bool {
		if m.Type != msgRelay && m.Type != msgCollect {
			return false
		}
		var body smc.RelayWire
		if err := transport.Unmarshal(m.Payload, &body); err != nil {
			t.Errorf("tapped %s: %v", m.Type, err)
			return false
		}
		bs, err := body.Unpack()
		if err != nil {
			t.Errorf("tapped %s: %v", m.Type, err)
			return false
		}
		mu.Lock()
		defer mu.Unlock()
		if m.Type == msgCollect {
			collect = append(collect, bs...)
		} else {
			relays = append(relays, relayed{from: m.From, to: m.To, origin: body.Origin, blocks: bs})
		}
		return false
	}

	cfg := Config{
		Group:     mathx.Oakley768,
		Ring:      []string{"R", "O"},
		Receivers: []string{"R"},
		Session:   "two-member-views",
	}
	// One relay chunk per set, no duplicates: block i of a set is the
	// encryption of element i.
	sets := map[string][][]byte{"R": span(0, 12), "O": span(8, 17)}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	results, err := smctest.RunParties(ctx, cfg.Ring, func(ctx context.Context, id string, mb *transport.Mailbox) ([][]byte, error) {
		return Run(ctx, mb, cfg, sets[id])
	}, func(n *transport.MemNetwork) { n.SetDropFn(tap) })
	if err != nil {
		t.Fatal(err)
	}

	// returned is the fully encrypted set that came back to origin,
	// sent by from.
	returned := func(origin, from string) [][]byte {
		for _, r := range relays {
			if r.origin == origin && r.to == origin && r.from == from {
				return r.blocks
			}
		}
		t.Fatalf("no fully encrypted %s set tapped", origin)
		return nil
	}
	// matched are the elements of set whose ciphertexts (cts, in set
	// order) appear among others.
	matched := func(set, cts, others [][]byte) [][]byte {
		var out [][]byte
		for i, c := range cts {
			if slices.ContainsFunc(others, func(o []byte) bool { return bytes.Equal(o, c) }) {
				out = append(out, set[i])
			}
		}
		return out
	}
	has := func(set [][]byte, el []byte) bool {
		return slices.ContainsFunc(set, func(s []byte) bool { return bytes.Equal(s, el) })
	}

	// The collector's view.
	rebuilt := matched(sets["R"], returned("R", "O"), collect)
	for _, el := range results["R"] {
		if !has(sets["R"], el) {
			rebuilt = append(rebuilt, el)
		}
	}
	if got, want := asStrings(rebuilt), asStrings(sets["O"]); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("collector rebuilt %v, want the other member's set %v", got, want)
	}

	// The other member's view: the ciphertexts it finished for R.
	learned := matched(sets["O"], returned("O", "R"), returned("R", "O"))
	var shared [][]byte
	for _, el := range sets["O"] {
		if has(sets["R"], el) {
			shared = append(shared, el)
		}
	}
	if got, want := asStrings(learned), asStrings(shared); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("other member rebuilt %v, want S_O ∩ S_R %v", got, want)
	}
}

// TestUnionMemberPermutesDecryptBatch plays the collector against one
// member and feeds it a 20-block decrypt batch. The member must forward
// the batch stripped of its layer, as a multiset, in a fresh order: a
// batch kept in the collector's order would let the collector link each
// decrypted foreign element to the members whose collects carried it.
// A uniform permutation keeps the input order with probability 1/20!.
func TestUnionMemberPermutesDecryptBatch(t *testing.T) {
	const session = "member-permutes"
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	net := transport.NewMemNetwork()
	defer net.Close() //nolint:errcheck
	mbs := make(map[string]*transport.Mailbox)
	for _, id := range []string{"C", "M"} {
		ep, err := net.Endpoint(id)
		if err != nil {
			t.Fatal(err)
		}
		mbs[id] = transport.NewMailbox(ep)
		defer mbs[id].Close() //nolint:errcheck
	}
	key, err := commutative.NewSessionKey(mathx.Oakley768)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Group: mathx.Oakley768, Ring: []string{"C", "M"}, Receivers: []string{"C"}, Session: session}
	member := party{mb: mbs["M"], cfg: cfg, key: key, next: "C", prev: "C"}
	done := make(chan error, 1)
	go func() {
		_, err := member.member(ctx, nil)
		done <- err
	}()

	var stripped [][]byte
	for _, el := range span(0, 20) {
		blk, err := EmbedElement(cfg.Group, el)
		if err != nil {
			t.Fatal(err)
		}
		stripped = append(stripped, blk)
	}
	in, err := key.EncryptBlocks(stripped)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := expectBatch(ctx, mbs["C"], msgCollect, session); err != nil {
		t.Fatal(err)
	}
	if err := sendBatch(ctx, mbs["C"], "M", msgDecrypt, session, 0, in); err != nil {
		t.Fatal(err)
	}
	from, hops, out, err := expectBatch(ctx, mbs["C"], msgDecrypt, session)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("member: %v", err)
	}
	if from != "M" || hops != 1 {
		t.Fatalf("batch from %s after %d layers, want M after 1", from, hops)
	}
	if slices.EqualFunc(out, stripped, bytes.Equal) {
		t.Fatal("member forwarded the decrypt batch in the order it received it")
	}
	if got, want := asStrings(out), asStrings(stripped); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatal("forwarded batch is not the received batch stripped of the member's layer")
	}
}
