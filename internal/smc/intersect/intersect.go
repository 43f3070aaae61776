// Package intersect implements the paper's secure set intersection ∩s
// (§3.1, Figure 4): each DLA node P_i holds a private set S_i; the
// protocol computes S_1 ∩ ... ∩ S_n such that only the designated
// receiver set P_w learns the intersection, and no node learns another
// node's non-common elements.
//
// Mechanics (exactly the paper's): every node encodes its elements into
// the commutative group, encrypts them under its own Pohlig-Hellman key,
// and sends the set around the ring. Each hop re-encrypts with the local
// key and forwards, so after the set traverses the whole ring it returns
// to its origin encrypted by every party. Under commutative encryption
// two fully-encrypted elements are equal iff their plaintexts are equal
// (eqs. 6-7), so the receivers can intersect the n fully-encrypted sets
// by plain equality — the E132(e)=E321(e)=E213(e) observation of
// Figure 4.
//
// Relaxation (Definition 1): set sizes and match positions are the
// "secondary information" the relaxed model deliberately does not hide.
// A receiver that also holds raw data maps matched positions of its own
// returned set back to plaintext.
package intersect

import (
	"context"
	"fmt"
	"time"

	"confaudit/internal/crypto/commutative"
	"confaudit/internal/mathx"
	"confaudit/internal/smc"
	"confaudit/internal/telemetry"
	"confaudit/internal/transport"
)

// Message types on the wire.
const (
	msgRelay = "intersect.relay"
	msgFinal = "intersect.final"
)

// Config describes one protocol run. All parties must use identical
// configuration.
type Config struct {
	// Group is the shared commutative-encryption group.
	Group *mathx.Group
	// Ring lists the participating node IDs in ring order.
	Ring []string
	// Receivers is P_w, the set of nodes authorized to learn the result.
	// Receivers must be ring members (they need their own encrypted sets
	// to map the result to plaintext).
	Receivers []string
	// Session disambiguates concurrent runs.
	Session string
}

// Result is one party's view after the protocol.
type Result struct {
	// Encrypted holds the fully-encrypted common elements; only
	// populated for receivers.
	Encrypted [][]byte
	// Plaintext holds the intersection in plaintext, recovered by
	// matching the receiver's own set positions; only populated for
	// receivers.
	Plaintext [][]byte
}

// Run executes one party's role in the protocol. Every ring member must
// call Run concurrently with its own mailbox and local set.
func Run(ctx context.Context, mb *transport.Mailbox, cfg Config, localSet [][]byte) (out *Result, err error) {
	if err := smc.ValidateRun(cfg.Group, cfg.Ring, cfg.Receivers, cfg.Session); err != nil {
		return nil, err
	}
	self := mb.ID()
	defer telemetry.M.Histogram(telemetry.HistIntersectRun).Since(time.Now())
	sp, ctx := telemetry.StartSpan(ctx, cfg.Session, self, "smc.intersect.run")
	sp.SetCount(len(localSet))
	defer func() { sp.End(err) }()
	key, err := commutative.NewSessionKey(cfg.Group)
	if err != nil {
		return nil, fmt.Errorf("intersect: generating key: %w", err)
	}

	// Deduplicate and encode the local set, remembering which original
	// elements produced each block so plaintext can be recovered later.
	blocks, owners := encodeSet(key, localSet)
	myFinal, err := smc.Circulate(ctx, mb, msgRelay, cfg.Session, cfg.Ring, key, blocks)
	if err != nil {
		return nil, err
	}

	// Publish the fully-encrypted set to every receiver.
	myFinalBody, err := smc.NewRelayWire(self, 0, myFinal, 0, 1)
	if err != nil {
		return nil, err
	}
	for _, r := range cfg.Receivers {
		if err := mb.SendBody(ctx, r, msgFinal, cfg.Session, &myFinalBody); err != nil {
			return nil, err
		}
	}
	if !smc.Contains(cfg.Receivers, self) {
		return &Result{}, nil
	}

	// Receiver: gather all n fully-encrypted sets and intersect.
	finals := map[string][][]byte{self: myFinal}
	if err := awaitFinals(ctx, mb, &cfg, finals); err != nil {
		return nil, err
	}
	common := intersectAll(cfg.Ring, finals)
	res := &Result{Encrypted: make([][]byte, 0, len(common))}
	// Map common encrypted values back through this receiver's own set
	// order to plaintext.
	for pos, blk := range myFinal {
		if _, ok := common[string(blk)]; ok {
			res.Encrypted = append(res.Encrypted, blk)
			res.Plaintext = append(res.Plaintext, owners[pos])
		}
	}
	return res, nil
}

// awaitFinals adds published fully-encrypted sets to finals until it
// holds one per ring member. A set whose sender is not its claimed
// origin, or whose origin is not a ring member, is refused.
func awaitFinals(ctx context.Context, mb *transport.Mailbox, cfg *Config, finals map[string][][]byte) error {
	for len(finals) < len(cfg.Ring) {
		msg, err := mb.Expect(ctx, msgFinal, cfg.Session)
		if err != nil {
			return fmt.Errorf("intersect: awaiting final sets: %w", err)
		}
		var body smc.RelayWire
		if err := transport.Unmarshal(msg.Payload, &body); err != nil {
			return err
		}
		if msg.From != body.Origin {
			return fmt.Errorf("%w: node %s published a set claiming origin %s", smc.ErrProtocol, msg.From, body.Origin)
		}
		if !smc.Contains(cfg.Ring, body.Origin) {
			return fmt.Errorf("%w: non-member %s published a final set", smc.ErrProtocol, body.Origin)
		}
		fb, err := body.Unpack()
		if err != nil {
			return err
		}
		finals[body.Origin] = fb
	}
	return nil
}

// encodeSet deduplicates and encodes elements, returning parallel slices
// of encoded blocks and the originating plaintext elements.
func encodeSet(key *commutative.PHKey, set [][]byte) (blocks [][]byte, owners [][]byte) {
	seen := make(map[string]struct{}, len(set))
	blocks = make([][]byte, 0, len(set))
	owners = make([][]byte, 0, len(set))
	for _, el := range set {
		k := string(el)
		if _, dup := seen[k]; dup {
			continue
		}
		seen[k] = struct{}{}
		blocks = append(blocks, key.EncodeElement(el))
		owners = append(owners, el)
	}
	return blocks, owners
}

// intersectAll returns the set of block values present in every party's
// fully-encrypted set.
func intersectAll(ring []string, finals map[string][][]byte) map[string]struct{} {
	common := make(map[string]struct{})
	for i, node := range ring {
		cur := make(map[string]struct{}, len(finals[node]))
		for _, b := range finals[node] {
			cur[string(b)] = struct{}{}
		}
		if i == 0 {
			common = cur
			continue
		}
		for k := range common {
			if _, ok := cur[k]; !ok {
				delete(common, k)
			}
		}
	}
	return common
}
