// Package union implements the paper's secure set union ∪s (§3.4): n
// nodes compute S_1 ∪ ... ∪ S_n "without revealing the owner(s) of each
// of the items at the final output".
//
// As in the paper, the computing procedure mirrors secure set
// intersection: every local set circulates the ring and is encrypted by
// every node. Every other node then sends its fully encrypted set to a
// collector (Ring[0]), which keeps one copy of each distinct encrypted
// element — duplicates across owners collapse because commutative
// encryption is deterministic. The collector already holds its own
// elements in plaintext, so it drops every ciphertext equal to one of
// its own and circulates only the foreign rest once more for every node
// to strip its encryption layer: decryption costs n·|∪ \ S_collector|
// full-width exponentiations rather than n·|∪|. The collector first
// blinds the batch under a one-time key, so no member can match it
// against the fully encrypted sets it holds from the ring pass. The
// batch starts at the collector's successor and the collector strips
// its layer and the blinding last, in one exponentiation per block, so
// plaintext exists only at the collector. The union is the collector's
// own elements plus the decrypted foreign ones.
//
// Ownership hiding is partial. The foreign ciphertexts are decrypted as
// one blinded batch, sorted by the collector and permuted afresh by
// every other member before it forwards, and the union goes to
// receivers sorted. So no node but the collector learns who contributed
// which item, beyond the ring pass's residual (each node can match its
// successor's fully encrypted set against its own). The collector
// learns more. It knows the plaintext behind each of its own
// ciphertexts and which member sent each collected one, so it learns
// which members hold each of its own elements; it applies the last
// layer to its successor's set, so it can attribute that set too. The
// permutations keep it from linking a decrypted foreign element to
// the collects that carried it. With two members the collector thus
// learns the other member's whole set: its shared elements by
// matching, the rest as the union minus its own. Set sizes leak, which
// Definition 1's relaxed model permits; non-collectors see the foreign
// batch size |∪ \ S_collector| = |∪| − |S_collector|, and every node
// sees |S_collector| when it relays the collector's set in the ring
// pass.
//
// A phase message is refused with smc.ErrProtocol unless it comes from
// the member the protocol expects: one collect from each non-collector,
// decrypt batches from the ring predecessor, the result from the
// collector.
//
// Unlike intersection, union must recover plaintexts, so elements are
// embedded reversibly in the group (length-prefixed bytes, not hashes).
// The embedding caps element length at BlockSize-2 bytes; longer
// elements must be chunked or hashed by the caller.
package union

import (
	"bytes"
	"context"
	"crypto/rand"
	"fmt"
	mrand "math/rand/v2"
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
	i, err := smc.IndexOf(cfg.Ring, self)
	if err != nil {
		return nil, err
	}
	defer telemetry.M.Histogram(telemetry.HistUnionRun).Since(time.Now())
	sp, ctx := telemetry.StartSpan(ctx, cfg.Session, self, "smc.union.run")
	sp.SetCount(len(localSet))
	defer func() { sp.End(err) }()
	key, err := commutative.NewSessionKey(cfg.Group)
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
	n := len(cfg.Ring)
	p := party{mb: mb, cfg: cfg, key: key, next: cfg.Ring[(i+1)%n], prev: cfg.Ring[(i+n-1)%n]}
	if i == 0 {
		return p.collect(ctx, blocks, myFinal)
	}
	return p.member(ctx, myFinal)
}

// party is one ring member's view of the phases after the ring pass.
type party struct {
	mb         *transport.Mailbox
	cfg        Config
	key        *commutative.PHKey
	next, prev string
}

// collect is the collector's role. Every other member ships its fully
// encrypted set here. The collector keeps only the ciphertexts that are
// not among its own (encryption is deterministic, so an element it
// shares with another owner arrives as one of its own ciphertexts),
// dedups them, blinds them under a one-time key, sorts them (sorting
// erases contribution order, hence ownership), and sends the foreign
// batch round the ring to be decrypted. It strips its own layer and the
// blinding last, so plaintext exists only here. The union is its own
// embeddings plus the decrypted foreign ones.
func (p *party) collect(ctx context.Context, own, myFinal [][]byte) ([][]byte, error) {
	mine := make(map[string]struct{}, len(myFinal))
	for _, b := range myFinal {
		mine[string(b)] = struct{}{}
	}
	pending := make(map[string]struct{}, len(p.cfg.Ring)-1)
	for _, id := range p.cfg.Ring[1:] {
		pending[id] = struct{}{}
	}
	foreign := make(map[string][]byte)
	for len(pending) > 0 {
		from, _, bs, err := expectBatch(ctx, p.mb, msgCollect, p.cfg.Session)
		if err != nil {
			return nil, fmt.Errorf("union: collecting sets: %w", err)
		}
		if _, ok := pending[from]; !ok {
			return nil, fmt.Errorf("%w: %s from %s, which is not a ring member still owing its set", smc.ErrProtocol, msgCollect, from)
		}
		delete(pending, from)
		for _, b := range bs {
			if _, ok := mine[string(b)]; !ok {
				foreign[string(b)] = b
			}
		}
	}
	batch := make([][]byte, 0, len(foreign))
	for _, b := range foreign {
		batch = append(batch, b)
	}
	// Blind the batch under a one-time key before it leaves. Every member
	// holds fully encrypted sets (its own, and its successor's, whose last
	// layer it applied), and encryption is deterministic, so it could
	// match them against a bare batch. Sorting the blinded blocks erases
	// contribution order.
	blind, err := commutative.NewSessionKey(p.cfg.Group)
	if err != nil {
		return nil, fmt.Errorf("union: generating blinding key: %w", err)
	}
	if batch, err = blind.EncryptBlocks(batch); err != nil {
		return nil, fmt.Errorf("union: blinding foreign batch: %w", err)
	}
	sortBlocks(batch)
	// The batch goes out even when empty, so every member's phase
	// completes.
	if err := sendBatch(ctx, p.mb, p.next, msgDecrypt, p.cfg.Session, 0, batch); err != nil {
		return nil, err
	}

	from, hops, bs, err := expectBatch(ctx, p.mb, msgDecrypt, p.cfg.Session)
	if err != nil {
		return nil, fmt.Errorf("union: awaiting final batch: %w", err)
	}
	if from != p.prev {
		return nil, fmt.Errorf("%w: %s batch from %s, not ring predecessor %s", smc.ErrProtocol, msgDecrypt, from, p.prev)
	}
	if n := len(p.cfg.Ring); hops != n-1 {
		return nil, fmt.Errorf("%w: decryption batch returned after %d of %d layers", smc.ErrProtocol, hops, n-1)
	}
	// Strip the collector's layer and the blinding together: one
	// exponentiation per block.
	strip, err := p.key.Compose(blind)
	if err != nil {
		return nil, err
	}
	dec, err := strip.DecryptBlocks(bs)
	if err != nil {
		return nil, fmt.Errorf("union: stripping collector layer: %w", err)
	}
	all := append(append(make([][]byte, 0, len(own)+len(dec)), own...), dec...)
	sortBlocks(all)
	// Distribute the fixed-width embeddings, sorted so their order says
	// nothing about ownership, to receivers, which extract the
	// plaintexts themselves.
	self := p.mb.ID()
	for _, r := range p.cfg.Receivers {
		if r == self {
			continue
		}
		if err := sendBatch(ctx, p.mb, r, msgResult, p.cfg.Session, 0, all); err != nil {
			return nil, err
		}
	}
	if !smc.Contains(p.cfg.Receivers, self) {
		return nil, nil
	}
	return extractSorted(all)
}

// member is a non-collector's role: ship the fully encrypted own set to
// the collector, strip this node's layer from the foreign batch coming
// from the ring predecessor and forward it in a fresh random order,
// then, as a receiver, take the union from the collector.
func (p *party) member(ctx context.Context, myFinal [][]byte) ([][]byte, error) {
	collector := p.cfg.Ring[0]
	if err := sendBatch(ctx, p.mb, collector, msgCollect, p.cfg.Session, 0, myFinal); err != nil {
		return nil, err
	}
	from, hops, bs, err := expectBatch(ctx, p.mb, msgDecrypt, p.cfg.Session)
	if err != nil {
		return nil, fmt.Errorf("union: awaiting decrypt batch: %w", err)
	}
	if from != p.prev {
		return nil, fmt.Errorf("%w: %s batch from %s, not ring predecessor %s", smc.ErrProtocol, msgDecrypt, from, p.prev)
	}
	dec, err := p.key.DecryptBlocks(bs)
	if err != nil {
		return nil, fmt.Errorf("union: stripping layer: %w", err)
	}
	// The collector knows which members' collects carried each block it
	// sent; a batch coming back in that order would let it link every
	// decrypted foreign element to its owners.
	if err := shuffleBlocks(dec); err != nil {
		return nil, err
	}
	if err := sendBatch(ctx, p.mb, p.next, msgDecrypt, p.cfg.Session, hops+1, dec); err != nil {
		return nil, err
	}
	if !smc.Contains(p.cfg.Receivers, p.mb.ID()) {
		return nil, nil
	}
	from, _, bs, err = expectBatch(ctx, p.mb, msgResult, p.cfg.Session)
	if err != nil {
		return nil, fmt.Errorf("union: awaiting result: %w", err)
	}
	if from != collector {
		return nil, fmt.Errorf("%w: %s from %s, not collector %s", smc.ErrProtocol, msgResult, from, collector)
	}
	return extractSorted(bs)
}

// expectBatch awaits the session's next typ message and returns its
// sender, hop count and blocks.
func expectBatch(ctx context.Context, mb *transport.Mailbox, typ, session string) (from string, hops int, blocks [][]byte, err error) {
	msg, err := mb.Expect(ctx, typ, session)
	if err != nil {
		return "", 0, nil, err
	}
	var body smc.RelayWire
	if err := transport.Unmarshal(msg.Payload, &body); err != nil {
		return "", 0, nil, err
	}
	if blocks, err = body.Unpack(); err != nil {
		return "", 0, nil, err
	}
	return msg.From, body.Hops, blocks, nil
}

// shuffleBlocks permutes blocks uniformly at random, from a ChaCha8
// stream under a fresh seed from crypto/rand.
func shuffleBlocks(blocks [][]byte) error {
	var seed [32]byte
	if _, err := rand.Read(seed[:]); err != nil {
		return fmt.Errorf("union: seeding permutation: %w", err)
	}
	mrand.New(mrand.NewChaCha8(seed)).Shuffle(len(blocks), func(i, j int) {
		blocks[i], blocks[j] = blocks[j], blocks[i]
	})
	return nil
}

// sortBlocks puts blocks in byte order.
func sortBlocks(blocks [][]byte) {
	sort.Slice(blocks, func(i, j int) bool { return bytes.Compare(blocks[i], blocks[j]) < 0 })
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
	sortBlocks(plain)
	return plain, nil
}

// sendBatch packs a whole block batch (collect, decrypt and result
// phases) as one single-chunk body after hops layers.
func sendBatch(ctx context.Context, mb *transport.Mailbox, to, typ, session string, hops int, blocks [][]byte) error {
	body, err := smc.NewRelayWire("", hops, blocks, 0, 1)
	if err != nil {
		return err
	}
	return mb.SendBody(ctx, to, typ, session, &body)
}
