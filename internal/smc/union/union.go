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
	// Receivers are the nodes that learn the union; they must be ring
	// members.
	Receivers []string
	// Session disambiguates concurrent runs.
	Session string
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

// Run executes one party's role. Every ring member calls Run
// concurrently; receivers (and only receivers) obtain the union.
func Run(ctx context.Context, mb *transport.Mailbox, cfg Config, localSet [][]byte) (out [][]byte, err error) {
	if err := smc.ValidateRun(cfg.Group, cfg.Ring, cfg.Receivers, cfg.Session); err != nil {
		return nil, err
	}
	self := mb.ID()
	next, err := smc.NextInRing(cfg.Ring, self)
	if err != nil {
		return nil, err
	}
	defer telemetry.M.Histogram(telemetry.HistUnionRun).Since(time.Now())
	sp, ctx := telemetry.StartSpan(ctx, cfg.Session, self, "smc.union.run")
	sp.SetCount(len(localSet))
	defer func() { sp.End(err) }()
	n := len(cfg.Ring)
	collector := cfg.Ring[0]
	key, err := commutative.SharedPool.Key(cfg.Group)
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

	// Phase 1: the ring pass, as in intersection.
	myFinal, err := smc.Circulate(ctx, mb, msgRelay, cfg.Session, cfg.Ring, key, blocks)
	if err != nil {
		return nil, err
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
	return smc.Send(ctx, mb, to, typ, session, &body)
}
