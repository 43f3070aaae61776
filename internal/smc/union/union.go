// Package union implements the paper's secure set union ∪s (§3.4): n
// nodes compute S_1 ∪ ... ∪ S_n "without revealing the owner(s) of each
// of the items at the final output".
//
// As in the paper, the computing procedure mirrors secure set
// intersection: every local set circulates the ring and is encrypted by
// every node. A collector keeps one copy of each distinct encrypted
// element — duplicates across owners collapse because commutative
// encryption is deterministic — and then the deduplicated encrypted
// elements are circulated once more for every node to strip its
// encryption layer, recovering the plaintext union.
//
// Ownership hiding: because deduplicated ciphertexts are decrypted as
// one combined batch (and the batch is sorted before decryption), the
// final plaintexts carry no trace of which node contributed which item.
// Set sizes leak, which Definition 1's relaxed model permits.
//
// Unlike intersection, union must recover plaintexts, so elements are
// embedded reversibly in the group (length-prefixed bytes, not hashes).
// The embedding caps element length at BlockSize-2 bytes; longer
// elements must be chunked or hashed by the caller.
package union

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"sort"
	"time"

	"confaudit/internal/crypto/commutative"
	"confaudit/internal/mathx"
	"confaudit/internal/smc"
	"confaudit/internal/telemetry"
	"confaudit/internal/transport"
)

// Message types on the wire.
const (
	msgRelay   = "union.relay"
	msgCollect = "union.collect"
	msgDecrypt = "union.decrypt"
	msgResult  = "union.result"
)

// Config describes one protocol run; identical across parties.
type Config struct {
	// Group is the shared commutative-encryption group.
	Group *mathx.Group
	// Ring lists the participating node IDs in ring order. Ring[0]
	// doubles as the collector that deduplicates encrypted elements.
	Ring []string
	// Receivers are the nodes that learn the union.
	Receivers []string
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

// sessionKey resolves the party's session key: an explicit Rand wins,
// then an explicit KeySource, then the shared pool.
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
	if c.Session == "" {
		return fmt.Errorf("%w: empty session", smc.ErrProtocol)
	}
	return nil
}

// EmbedElement reversibly encodes element bytes as a group element:
// 0x01 || data interpreted big-endian. The leading byte keeps the value
// nonzero and preserves leading zero bytes of the data.
func EmbedElement(g *mathx.Group, data []byte) ([]byte, error) {
	size := (g.P.BitLen() + 7) / 8
	if len(data) > size-2 {
		return nil, fmt.Errorf("union: element of %d bytes exceeds embedding capacity %d", len(data), size-2)
	}
	block := make([]byte, size)
	copy(block[size-len(data):], data)
	block[size-len(data)-1] = 0x01
	return block, nil
}

// ExtractElement inverts EmbedElement.
func ExtractElement(block []byte) ([]byte, error) {
	for i, b := range block {
		switch b {
		case 0x00:
			continue
		case 0x01:
			return append([]byte(nil), block[i+1:]...), nil
		default:
			return nil, fmt.Errorf("union: malformed embedding prefix 0x%02x", b)
		}
	}
	return nil, fmt.Errorf("union: empty embedding")
}

// relayChunkSize bounds the number of blocks per phase-1 relay message,
// mirroring the intersect package: streaming chunks lets hop i+1 start
// re-encrypting while hop i is still working, and leaks only set sizes
// (Definition 1 secondary information).
var relayChunkSize = 64

// Run executes one party's role. Every ring member calls Run
// concurrently; receivers (and only receivers) obtain the union.
func Run(ctx context.Context, mb *transport.Mailbox, cfg Config, localSet [][]byte) (out [][]byte, err error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	self := mb.ID()
	if _, err := smc.IndexOf(cfg.Ring, self); err != nil {
		return nil, err
	}
	defer telemetry.M.Histogram(telemetry.HistUnionRun).Since(time.Now())
	sp, ctx := telemetry.StartSpan(ctx, cfg.Session, self, "smc.union.run")
	sp.SetCount(len(localSet))
	defer func() { sp.End(err) }()
	n := len(cfg.Ring)
	next, err := smc.NextInRing(cfg.Ring, self)
	if err != nil {
		return nil, err
	}
	collector := cfg.Ring[0]
	key, err := sessionKey(&cfg)
	if err != nil {
		return nil, fmt.Errorf("union: generating key: %w", err)
	}

	// Embed and deduplicate the local set.
	seen := make(map[string]struct{}, len(localSet))
	blocks := make([][]byte, 0, len(localSet))
	for _, el := range localSet {
		k := string(el)
		if _, dup := seen[k]; dup {
			continue
		}
		seen[k] = struct{}{}
		blk, err := EmbedElement(cfg.Group, el)
		if err != nil {
			return nil, err
		}
		blocks = append(blocks, blk)
	}

	// Phase 1: ring circulation, as in intersection, streamed chunk by
	// chunk so hops overlap. The encryption stream runs ahead of the
	// sends (double-buffered; see smc.EncryptStream), overlapping this
	// hop's modexp work with its own wire time.
	runCtx, cancelStream := context.WithCancel(ctx)
	defer cancelStream()
	myChunks := smc.SplitChunks(blocks, relayChunkSize)
	encCh := smc.EncryptStream(runCtx, cfg.Session, self, key, myChunks)
	for range myChunks {
		ec, ok := smc.NextEncChunk(encCh)
		if !ok {
			if cerr := ctx.Err(); cerr != nil {
				return nil, fmt.Errorf("union: encrypting local set: %w", cerr)
			}
			return nil, fmt.Errorf("%w: encryption stream ended early", smc.ErrProtocol)
		}
		if ec.Err != nil {
			ec.Span.End(ec.Err)
			return nil, fmt.Errorf("union: encrypting local set: %w", ec.Err)
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
	var myFinal [][]byte
	streams := make(map[string]*smc.Reassembly, n)
	for complete := 0; complete < n; {
		msg, err := mb.Expect(ctx, msgRelay, cfg.Session)
		if err != nil {
			return nil, fmt.Errorf("union: awaiting relay: %w", err)
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
				return nil, fmt.Errorf("union: re-encrypting set from %s: %w", body.Origin, err)
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
			}
		}
	}

	// Phase 2: every party ships its fully-encrypted set to the
	// collector, which dedups and sorts (sorting erases contribution
	// order, hence ownership).
	if err := sendBatch(ctx, mb, collector, msgCollect, cfg.Session, 0, myFinal); err != nil {
		return nil, err
	}
	if self == collector {
		dedup := make(map[string][]byte)
		for i := 0; i < n; i++ {
			msg, err := mb.Expect(ctx, msgCollect, cfg.Session)
			if err != nil {
				return nil, fmt.Errorf("union: collecting sets: %w", err)
			}
			var body smc.RelayWire
			if err := transport.Unmarshal(msg.Payload, &body); err != nil {
				return nil, err
			}
			bs, err := body.Unpack()
			if err != nil {
				return nil, err
			}
			for _, b := range bs {
				dedup[string(b)] = b
			}
		}
		merged := make([][]byte, 0, len(dedup))
		for _, b := range dedup {
			merged = append(merged, b)
		}
		sort.Slice(merged, func(i, j int) bool { return bytes.Compare(merged[i], merged[j]) < 0 })
		// Start the decryption circulation with the collector's own layer
		// stripped.
		dec, err := key.DecryptBlocks(merged)
		if err != nil {
			return nil, fmt.Errorf("union: stripping collector layer: %w", err)
		}
		if err := sendBatch(ctx, mb, next, msgDecrypt, cfg.Session, 1, dec); err != nil {
			return nil, err
		}
	}

	// Phase 3: decryption circulation. Every non-collector strips its
	// layer once and forwards; after n hops the collector holds
	// plaintext embeddings.
	var plain [][]byte
	if self != collector {
		msg, err := mb.Expect(ctx, msgDecrypt, cfg.Session)
		if err != nil {
			return nil, fmt.Errorf("union: awaiting decrypt batch: %w", err)
		}
		var body smc.RelayWire
		if err := transport.Unmarshal(msg.Payload, &body); err != nil {
			return nil, err
		}
		bs, err := body.Unpack()
		if err != nil {
			return nil, err
		}
		dec, err := key.DecryptBlocks(bs)
		if err != nil {
			return nil, fmt.Errorf("union: stripping layer: %w", err)
		}
		if err := sendBatch(ctx, mb, next, msgDecrypt, cfg.Session, body.Hops+1, dec); err != nil {
			return nil, err
		}
	} else {
		msg, err := mb.Expect(ctx, msgDecrypt, cfg.Session)
		if err != nil {
			return nil, fmt.Errorf("union: awaiting final batch: %w", err)
		}
		var body smc.RelayWire
		if err := transport.Unmarshal(msg.Payload, &body); err != nil {
			return nil, err
		}
		if body.Hops != n {
			return nil, fmt.Errorf("%w: decryption batch returned after %d of %d layers", smc.ErrProtocol, body.Hops, n)
		}
		bs, err := body.Unpack()
		if err != nil {
			return nil, err
		}
		if plain, err = extractSorted(bs); err != nil {
			return nil, err
		}
		// Distribute the fixed-width embeddings to receivers, which
		// extract the plaintexts themselves.
		for _, r := range cfg.Receivers {
			if r == self {
				continue
			}
			if err := sendBatch(ctx, mb, r, msgResult, cfg.Session, 0, bs); err != nil {
				return nil, err
			}
		}
	}

	if !smc.Contains(cfg.Receivers, self) {
		return nil, nil
	}
	if self == collector {
		return plain, nil
	}
	msg, err := mb.Expect(ctx, msgResult, cfg.Session)
	if err != nil {
		return nil, fmt.Errorf("union: awaiting result: %w", err)
	}
	var body smc.RelayWire
	if err := transport.Unmarshal(msg.Payload, &body); err != nil {
		return nil, err
	}
	bs, err := body.Unpack()
	if err != nil {
		return nil, err
	}
	return extractSorted(bs)
}

// extractSorted recovers the plaintexts embedded in blocks, in byte
// order.
func extractSorted(blocks [][]byte) ([][]byte, error) {
	plain := make([][]byte, 0, len(blocks))
	for _, blk := range blocks {
		el, err := ExtractElement(blk)
		if err != nil {
			return nil, fmt.Errorf("union: extracting element: %w", err)
		}
		plain = append(plain, el)
	}
	sort.Slice(plain, func(i, j int) bool { return bytes.Compare(plain[i], plain[j]) < 0 })
	return plain, nil
}

// sendBatch packs a whole block batch (collect, decrypt and result
// phases) as one single-chunk body after hops layers.
func sendBatch(ctx context.Context, mb *transport.Mailbox, to, typ, session string, hops int, blocks [][]byte) error {
	body, err := smc.NewRelayWire("", hops, blocks, 0, 1)
	if err != nil {
		return err
	}
	return send(ctx, mb, to, typ, session, &body)
}

// send defers the body's binary payload encoding to the transport (the
// zero-copy frame path on TCP).
func send(ctx context.Context, mb *transport.Mailbox, to, typ, session string, body transport.BinaryBody) error {
	msg := transport.NewBinaryMessage(to, typ, session, body)
	if err := mb.Send(ctx, msg); err != nil {
		return fmt.Errorf("union: sending %s to %s: %w", typ, to, err)
	}
	return nil
}
