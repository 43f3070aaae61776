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
	"io"
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
	// Observers optionally names nodes outside the ring that receive
	// every fully-encrypted set and therefore learn only the
	// intersection SIZE — the "secure computation of the size of set
	// intersection" the paper cites from [20]. Observers call Observe.
	Observers []string
	// Session disambiguates concurrent runs.
	Session string
	// Rand is the entropy source. When set, the session key is sampled
	// from it directly (full-width exponents, deterministic under a
	// seeded reader — the test path). When nil, Keys supplies the key.
	Rand io.Reader
	// Keys overrides the session key source. Nil (and Rand nil) means
	// the shared pregenerated pool, which is the production fast path.
	Keys commutative.KeySource
}

// sessionKey resolves the party's session key: an explicit Rand wins
// (bypassing pooling entirely), then an explicit KeySource, then the
// shared pool.
func sessionKey(cfg *Config) (*commutative.PHKey, error) {
	if cfg.Rand != nil {
		return commutative.NewPHKey(cfg.Rand, cfg.Group)
	}
	if cfg.Keys != nil {
		return cfg.Keys.Key(cfg.Group)
	}
	return commutative.SharedPool.Key(cfg.Group)
}

func (c *Config) validate() error {
	if c.Group == nil {
		return fmt.Errorf("%w: nil group", smc.ErrProtocol)
	}
	if err := smc.ValidateRing(c.Ring, 2); err != nil {
		return err
	}
	if len(c.Receivers) == 0 {
		return fmt.Errorf("%w: no receivers", smc.ErrProtocol)
	}
	for _, r := range c.Receivers {
		if !smc.Contains(c.Ring, r) {
			return fmt.Errorf("%w: receiver %q is not a ring member", smc.ErrProtocol, r)
		}
	}
	if c.Session == "" {
		return fmt.Errorf("%w: empty session", smc.ErrProtocol)
	}
	return nil
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

// relayChunkSize bounds the number of blocks per relay message. A set
// larger than one chunk is streamed through the ring in pieces, so the
// next hop starts re-encrypting chunk 0 while this hop is still working
// on chunk k — ring latency approaches T_set + (n-1)*T_chunk instead of
// n*T_set. Chunking leaks only the set size, which Definition 1 already
// treats as permitted secondary information.
var relayChunkSize = 64

// Run executes one party's role in the protocol. Every ring member must
// call Run concurrently with its own mailbox and local set.
func Run(ctx context.Context, mb *transport.Mailbox, cfg Config, localSet [][]byte) (out *Result, err error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	self := mb.ID()
	if _, err := smc.IndexOf(cfg.Ring, self); err != nil {
		return nil, err
	}
	defer telemetry.M.Histogram(telemetry.HistIntersectRun).Since(time.Now())
	sp, ctx := telemetry.StartSpan(ctx, cfg.Session, self, "smc.intersect.run")
	sp.SetCount(len(localSet))
	defer func() { sp.End(err) }()
	n := len(cfg.Ring)
	next, err := smc.NextInRing(cfg.Ring, self)
	if err != nil {
		return nil, err
	}
	key, err := sessionKey(&cfg)
	if err != nil {
		return nil, fmt.Errorf("intersect: generating key: %w", err)
	}

	// Deduplicate and encode the local set, remembering which original
	// elements produced each block so plaintext can be recovered later.
	blocks, owners := encodeSet(key, localSet)

	// Round 1: encrypt own set and stream it into the ring chunk by
	// chunk, so downstream hops start re-encrypting before the whole
	// set is done here. The encryption stream runs ahead of the sends
	// (double-buffered; see smc.EncryptStream), overlapping this hop's
	// modexp work with its own wire time.
	runCtx, cancelStream := context.WithCancel(ctx)
	defer cancelStream()
	myChunks := smc.SplitChunks(blocks, relayChunkSize)
	encCh := smc.EncryptStream(runCtx, cfg.Session, self, key, myChunks)
	for range myChunks {
		ec, ok := smc.NextEncChunk(encCh)
		if !ok {
			if cerr := ctx.Err(); cerr != nil {
				return nil, fmt.Errorf("intersect: encrypting local set: %w", cerr)
			}
			return nil, fmt.Errorf("%w: encryption stream ended early", smc.ErrProtocol)
		}
		if ec.Err != nil {
			ec.Span.End(ec.Err)
			return nil, fmt.Errorf("intersect: encrypting local set: %w", ec.Err)
		}
		body, err := smc.NewRelayWire(self, 1, ec.Blocks, ec.Seq, len(myChunks))
		if err == nil {
			err = send(ctx, mb, next, msgRelay, cfg.Session, &body)
		}
		smc.ObserveRelayChunk(ec.Span, ec.Start, next, ec.Seq, len(myChunks), ec.Blocks, err)
		if err != nil {
			return nil, err
		}
	}

	// Relay loop: each party sees every origin's complete chunk stream
	// exactly once — n-1 streams from other origins (re-encrypt and
	// forward chunk-wise) and its own returning fully-encrypted stream.
	var myFinal [][]byte
	myDone := false
	streams := make(map[string]*smc.Reassembly, n)
	for complete := 0; complete < n; {
		msg, err := mb.Expect(ctx, msgRelay, cfg.Session)
		if err != nil {
			return nil, fmt.Errorf("intersect: awaiting relay: %w", err)
		}
		var body smc.RelayWire
		if err := transport.Unmarshal(msg.Payload, &body); err != nil {
			return nil, err
		}
		chunkBlocks, err := body.Unpack()
		if err != nil {
			return nil, err
		}
		if body.Origin == self {
			if body.Hops != n {
				return nil, fmt.Errorf("%w: own set returned after %d of %d encryptions", smc.ErrProtocol, body.Hops, n)
			}
		} else {
			csp, _ := telemetry.StartSpan(ctx, cfg.Session, self, "smc.relay_chunk")
			chunkStart := time.Now()
			enc, err := key.EncryptBlocks(chunkBlocks)
			if err != nil {
				csp.End(err)
				return nil, fmt.Errorf("intersect: re-encrypting set from %s: %w", body.Origin, err)
			}
			fwd, err := smc.NewRelayWire(body.Origin, body.Hops+1, enc, body.Seq, body.Total)
			if err == nil {
				err = send(ctx, mb, next, msgRelay, cfg.Session, &fwd)
			}
			smc.ObserveRelayChunk(csp, chunkStart, next, body.Seq, body.Total, enc, err)
			if err != nil {
				return nil, err
			}
		}
		r := streams[body.Origin]
		if r == nil {
			r = &smc.Reassembly{}
			streams[body.Origin] = r
		}
		done, err := r.Add(&body, chunkBlocks)
		if err != nil {
			return nil, err
		}
		if done {
			complete++
			if body.Origin == self {
				myFinal = r.Assemble()
				myDone = true
			}
		}
	}
	if !myDone {
		return nil, fmt.Errorf("%w: own set never returned", smc.ErrProtocol)
	}

	// Publish the fully-encrypted set to every receiver and observer.
	myFinalBody, err := smc.NewRelayWire(self, 0, myFinal, 0, 1)
	if err != nil {
		return nil, err
	}
	for _, r := range cfg.Receivers {
		if err := send(ctx, mb, r, msgFinal, cfg.Session, &myFinalBody); err != nil {
			return nil, err
		}
	}
	for _, o := range cfg.Observers {
		if err := send(ctx, mb, o, msgFinal, cfg.Session, &myFinalBody); err != nil {
			return nil, err
		}
	}
	if !smc.Contains(cfg.Receivers, self) {
		return &Result{}, nil
	}

	// Receiver: gather all n fully-encrypted sets and intersect.
	finals := make(map[string][][]byte, n)
	finals[self] = myFinal
	for len(finals) < n {
		msg, err := mb.Expect(ctx, msgFinal, cfg.Session)
		if err != nil {
			return nil, fmt.Errorf("intersect: awaiting final sets: %w", err)
		}
		var body smc.RelayWire
		if err := transport.Unmarshal(msg.Payload, &body); err != nil {
			return nil, err
		}
		if msg.From != body.Origin {
			return nil, fmt.Errorf("%w: node %s published a set claiming origin %s", smc.ErrProtocol, msg.From, body.Origin)
		}
		fb, err := body.Unpack()
		if err != nil {
			return nil, err
		}
		finals[body.Origin] = fb
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

// Observe runs the observer role: collect every party's fully-encrypted
// set and return the intersection cardinality. The observer learns set
// sizes and the match count — Definition 1's permitted secondary
// information — but no plaintext elements, since it holds no decryption
// keys and no raw data to align positions against.
func Observe(ctx context.Context, mb *transport.Mailbox, cfg Config) (int, error) {
	if err := cfg.validate(); err != nil {
		return 0, err
	}
	if !smc.Contains(cfg.Observers, mb.ID()) {
		return 0, fmt.Errorf("%w: %q is not an observer", smc.ErrProtocol, mb.ID())
	}
	n := len(cfg.Ring)
	finals := make(map[string][][]byte, n)
	for len(finals) < n {
		msg, err := mb.Expect(ctx, msgFinal, cfg.Session)
		if err != nil {
			return 0, fmt.Errorf("intersect: observing final sets: %w", err)
		}
		var body smc.RelayWire
		if err := transport.Unmarshal(msg.Payload, &body); err != nil {
			return 0, err
		}
		if msg.From != body.Origin {
			return 0, fmt.Errorf("%w: node %s published a set claiming origin %s", smc.ErrProtocol, msg.From, body.Origin)
		}
		fb, err := body.Unpack()
		if err != nil {
			return 0, err
		}
		finals[body.Origin] = fb
	}
	return len(intersectAll(cfg.Ring, finals)), nil
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

// send defers the body's binary payload encoding to the transport (the
// zero-copy frame path on TCP).
func send(ctx context.Context, mb *transport.Mailbox, to, typ, session string, body transport.BinaryBody) error {
	msg := transport.NewBinaryMessage(to, typ, session, body)
	if err := mb.Send(ctx, msg); err != nil {
		return fmt.Errorf("intersect: sending %s to %s: %w", typ, to, err)
	}
	return nil
}
