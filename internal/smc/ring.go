package smc

import (
	"context"
	"fmt"
	"time"

	"confaudit/internal/crypto/commutative"
	"confaudit/internal/telemetry"
	"confaudit/internal/transport"
)

// The ring pass (paper §3.1, Figure 4), shared by ∩s and ∪s.
//
// Every ring member encrypts its own set under its commutative key and
// sends it to its successor; every hop re-encrypts what it receives and
// forwards it, so each set returns to its origin encrypted by all n
// keys. Sets stream in chunks of relayChunkSize blocks with Seq/Total
// framing, so hop i+1 starts re-encrypting chunk 0 while hop i is still
// working on chunk k — ring latency approaches T_set + (n-1)*T_chunk
// instead of n*T_set. Chunking leaks only the set size, which
// Definition 1 already treats as permitted secondary information.
//
// Overlapped crypto/relay pipelining: the first hop is a strict
// alternation on the hot path — encrypt own chunk k, send it, encrypt
// chunk k+1 — so the network would sit idle while the CPU exponentiates
// and vice versa. encryptStream decouples the two: a producer goroutine
// encrypts the own set ahead of the ring sends, double-buffered through
// a channel holding one finished chunk (one chunk in flight on the wire
// while the next is in the modexp engine). The smc.overlap_stalls
// counter records every time the send side reached for a chunk the
// producer had not finished — the residual serialization the overlap
// could not hide (on a single-core box nearly every chunk).

// relayChunkSize bounds the number of blocks per relay message.
const relayChunkSize = 64

// Circulate runs this node's part of one ring pass of message type typ
// and returns this node's own set once it has come back encrypted under
// every ring member's key. Every ring member calls Circulate
// concurrently with its own mailbox, key and encoded blocks.
//
// Own blocks are the only ones encrypted through key.EncryptFirstHop;
// every other origin's chunks are re-encrypted with key.EncryptBlocks
// and forwarded. A chunk is refused with ErrProtocol when its sender is
// not this node's ring predecessor, when its origin is not a ring
// member, when its framing conflicts with the origin's earlier chunks,
// or when this node's own set returns short of n encryptions.
func Circulate(ctx context.Context, mb *transport.Mailbox, typ, session string,
	ring []string, key *commutative.PHKey, blocks [][]byte) ([][]byte, error) {
	self := mb.ID()
	i, err := IndexOf(ring, self)
	if err != nil {
		return nil, err
	}
	n := len(ring)
	next, prev := ring[(i+1)%n], ring[(i+n-1)%n]

	// Stream the own set into the ring chunk by chunk; the encryption
	// stream runs ahead of the sends.
	runCtx, cancelStream := context.WithCancel(ctx)
	defer cancelStream()
	mine := splitChunks(blocks)
	encCh := encryptStream(runCtx, session, self, key, mine)
	for range mine {
		ec, ok := nextChunk(encCh)
		if !ok {
			if cerr := ctx.Err(); cerr != nil {
				return nil, fmt.Errorf("smc: encrypting local set: %w", cerr)
			}
			return nil, fmt.Errorf("%w: encryption stream ended early", ErrProtocol)
		}
		if ec.err != nil {
			ec.span.End(ec.err)
			return nil, fmt.Errorf("smc: encrypting local set: %w", ec.err)
		}
		body, err := NewRelayWire(self, 1, ec.blocks, ec.seq, len(mine))
		if err == nil {
			err = mb.SendBody(ctx, next, typ, session, &body)
		}
		observeRelayChunk(ec.span, ec.start, next, ec.seq, len(mine), ec.blocks, err)
		if err != nil {
			return nil, err
		}
	}

	// Relay loop: each party sees every origin's complete chunk stream
	// exactly once — n-1 streams from other origins (re-encrypt and
	// forward chunk-wise) and its own returning fully-encrypted stream.
	var myFinal [][]byte
	myDone := false
	streams := make(map[string]*reassembly, n)
	for complete := 0; complete < n; {
		msg, err := mb.Expect(ctx, typ, session)
		if err != nil {
			return nil, fmt.Errorf("smc: awaiting %s: %w", typ, err)
		}
		if msg.From != prev {
			return nil, fmt.Errorf("%w: %s chunk from %s, not ring predecessor %s", ErrProtocol, typ, msg.From, prev)
		}
		var body RelayWire
		if err := transport.Unmarshal(msg.Payload, &body); err != nil {
			return nil, err
		}
		if !Contains(ring, body.Origin) {
			return nil, fmt.Errorf("%w: %s chunk claims non-member origin %q", ErrProtocol, typ, body.Origin)
		}
		chunkBlocks, err := body.Unpack()
		if err != nil {
			return nil, err
		}
		if body.Origin == self {
			if body.Hops != n {
				return nil, fmt.Errorf("%w: own set returned after %d of %d encryptions", ErrProtocol, body.Hops, n)
			}
		} else {
			csp, _ := telemetry.StartSpan(ctx, session, self, "smc.relay_chunk")
			chunkStart := time.Now()
			enc, err := key.EncryptBlocks(chunkBlocks)
			if err != nil {
				csp.End(err)
				return nil, fmt.Errorf("smc: re-encrypting set from %s: %w", body.Origin, err)
			}
			fwd, err := NewRelayWire(body.Origin, body.Hops+1, enc, body.Seq, body.Total)
			if err == nil {
				err = mb.SendBody(ctx, next, typ, session, &fwd)
			}
			observeRelayChunk(csp, chunkStart, next, body.Seq, body.Total, enc, err)
			if err != nil {
				return nil, err
			}
		}
		r := streams[body.Origin]
		if r == nil {
			r = &reassembly{}
			streams[body.Origin] = r
		}
		done, err := r.add(&body, chunkBlocks)
		if err != nil {
			return nil, err
		}
		if done {
			complete++
			if body.Origin == self {
				myFinal = r.assemble()
				myDone = true
			}
		}
	}
	if !myDone {
		return nil, fmt.Errorf("%w: own set never returned", ErrProtocol)
	}
	return myFinal, nil
}

// encChunk is one precomputed chunk of a session's encryption stream.
type encChunk struct {
	seq    int
	blocks [][]byte // nil when err is set
	// err is the encryption failure, if any; the producer stops after
	// delivering it.
	err error
	// start is when the producer began this chunk, for relay-chunk
	// latency accounting spanning encrypt plus send.
	start time.Time
	// span is the chunk's open telemetry span; the consumer closes it
	// via observeRelayChunk (or End on error).
	span *telemetry.Span
}

// encryptStream starts the producer for a session's own-set encryption
// stream and returns its output channel. The channel is closed after
// the last chunk (or after delivering an errored chunk). Cancel ctx to
// stop the producer early; it never blocks past cancellation.
func encryptStream(ctx context.Context, session, self string, key *commutative.PHKey, chunks [][][]byte) <-chan encChunk {
	ch := make(chan encChunk, 1)
	go func() {
		defer close(ch)
		for seq, chunk := range chunks {
			sp, _ := telemetry.StartSpan(ctx, session, self, "smc.relay_chunk")
			start := time.Now()
			enc, err := key.EncryptFirstHop(chunk)
			ec := encChunk{seq: seq, blocks: enc, err: err, start: start, span: sp}
			select {
			case ch <- ec:
			case <-ctx.Done():
				sp.End(ctx.Err())
				return
			}
			if err != nil {
				return
			}
		}
	}()
	return ch
}

// nextChunk takes the next precomputed chunk off the stream, counting a
// stall when the producer has not finished it yet — the moments the
// ring send path waited on crypto. A closed, drained stream returns
// ok=false without counting a stall.
func nextChunk(ch <-chan encChunk) (encChunk, bool) {
	select {
	case ec, ok := <-ch:
		return ec, ok
	default:
	}
	telemetry.M.Counter(telemetry.CtrOverlapStalls).Add(1)
	ec, ok := <-ch
	return ec, ok
}

// observeRelayChunk finishes one ring-relay chunk span with the framing
// and size facts Definition 1 permits (peer, Seq/Total, byte count) and
// feeds the shared relay metrics. start is when the hop began work on
// the chunk; blocks are the encrypted payload about to be (or just)
// forwarded.
func observeRelayChunk(sp *telemetry.Span, start time.Time, peer string, seq, total int, blocks [][]byte, err error) {
	n := 0
	for _, b := range blocks {
		n += len(b)
	}
	sp.SetPeer(peer).SetChunk(seq, total).AddBytes(n).End(err)
	telemetry.M.Histogram(telemetry.HistRelayChunk).Observe(time.Since(start))
	telemetry.M.Counter(telemetry.CtrRelayBytes).Add(int64(n))
}

// splitChunks cuts blocks into pieces of at most relayChunkSize blocks;
// an empty set is a single empty chunk so every origin still injects
// exactly one stream.
func splitChunks(blocks [][]byte) [][][]byte {
	if len(blocks) == 0 {
		return [][][]byte{nil}
	}
	out := make([][][]byte, 0, (len(blocks)+relayChunkSize-1)/relayChunkSize)
	for len(blocks) > relayChunkSize {
		out = append(out, blocks[:relayChunkSize])
		blocks = blocks[relayChunkSize:]
	}
	return append(out, blocks)
}

// reassembly accumulates one origin's relay chunks.
type reassembly struct {
	total  int
	chunks map[int][][]byte
}

// add records chunk w, whose unpacked blocks are given, validating its
// framing against what was already seen. It reports whether the
// origin's set is now complete.
func (r *reassembly) add(w *RelayWire, blocks [][]byte) (bool, error) {
	if r.chunks == nil {
		r.total = w.Total
		// No size hint: Total comes off the wire.
		r.chunks = make(map[int][][]byte)
	}
	if w.Total != r.total {
		return false, fmt.Errorf("%w: origin %s changed chunk count %d to %d", ErrProtocol, w.Origin, r.total, w.Total)
	}
	if w.Seq < 0 || w.Seq >= w.Total {
		return false, fmt.Errorf("%w: origin %s chunk %d of %d out of range", ErrProtocol, w.Origin, w.Seq, w.Total)
	}
	if _, dup := r.chunks[w.Seq]; dup {
		return false, fmt.Errorf("%w: origin %s repeated chunk %d", ErrProtocol, w.Origin, w.Seq)
	}
	r.chunks[w.Seq] = blocks
	return len(r.chunks) == r.total, nil
}

// assemble concatenates the chunks in sequence order.
func (r *reassembly) assemble() [][]byte {
	var out [][]byte
	for i := 0; i < r.total; i++ {
		out = append(out, r.chunks[i]...)
	}
	return out
}
