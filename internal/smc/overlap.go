package smc

import (
	"context"
	"time"

	"confaudit/internal/telemetry"
)

// Overlapped crypto/relay pipelining.
//
// A ring protocol's round 1 is a strict alternation on the hot path:
// encrypt own chunk k, send it, encrypt chunk k+1, ... — the network
// sits idle while the CPU exponentiates and vice versa. EncryptStream
// decouples the two: a producer goroutine precomputes the session's
// chunk encryptions ahead of the ring sends, double-buffered through a
// channel holding one finished chunk (so at any moment one chunk can be
// in flight on the wire while the next is in the modexp engine). The
// smc.overlap_stalls counter records every time the send side reached
// for a chunk the producer had not finished — the residual serialization
// the overlap could not hide (on a single-core box this is expected to
// be nearly every chunk; the counter is how the benchmark tells).

// EncChunk is one precomputed chunk of a session's encryption stream.
type EncChunk struct {
	// Seq is the chunk's position in the stream.
	Seq int
	// Blocks is the encrypted chunk (nil when Err is set).
	Blocks [][]byte
	// Err is the encryption failure, if any; the producer stops after
	// delivering it.
	Err error
	// Start is when the producer began this chunk, for relay-chunk
	// latency accounting spanning encrypt plus send.
	Start time.Time
	// Span is the chunk's open telemetry span; the consumer closes it
	// via ObserveRelayChunk (or End on error).
	Span *telemetry.Span
}

// BlockEncryptor is the slice of the commutative-cipher key the stream
// needs: the first-hop entry point, which serves a node's own recurring
// encodings from fixed-base tables (see commutative.PHKey).
type BlockEncryptor interface {
	EncryptFirstHop(blocks [][]byte) ([][]byte, error)
}

// EncryptStream starts the producer for a session's own-set encryption
// stream and returns its output channel. It is the only place a node
// encrypts its own set; relayed sets go through EncryptBlocks. The
// channel is closed after the last chunk (or after delivering an
// errored chunk). Cancel ctx to stop the producer early; it never
// blocks past cancellation.
func EncryptStream(ctx context.Context, session, self string, key BlockEncryptor, chunks [][][]byte) <-chan EncChunk {
	ch := make(chan EncChunk, 1)
	go func() {
		defer close(ch)
		for seq, chunk := range chunks {
			sp, _ := telemetry.StartSpan(ctx, session, self, "smc.relay_chunk")
			start := time.Now()
			enc, err := key.EncryptFirstHop(chunk)
			ec := EncChunk{Seq: seq, Blocks: enc, Err: err, Start: start, Span: sp}
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

// NextEncChunk takes the next precomputed chunk off the stream,
// counting a stall when the producer has not finished it yet — the
// moments the ring send path waited on crypto. A closed, drained
// stream returns ok=false without counting a stall.
func NextEncChunk(ch <-chan EncChunk) (EncChunk, bool) {
	select {
	case ec, ok := <-ch:
		return ec, ok
	default:
	}
	telemetry.M.Counter(telemetry.CtrOverlapStalls).Add(1)
	ec, ok := <-ch
	return ec, ok
}
