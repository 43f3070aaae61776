// Package transport provides the messaging substrate the DLA protocols
// run over. The paper assumes "message routing is handled by the lower
// network layer" (§3.1); this package is that layer.
//
// Two interchangeable implementations are provided:
//
//   - MemNetwork: an in-process simulated network with optional latency
//     and fault injection — seeded drop rates and latency jitter at
//     construction, plus the runtime SetDropFn and Partition hooks for
//     scripted loss and partitions — used by tests, examples,
//     benchmarks, and the chaos suite;
//   - TCPNetwork: real TCP with length-prefixed binary frames (codec.go),
//     used by the cmd/dlad daemon.
//
// Protocols built on top use Mailbox, which demultiplexes incoming
// messages by (type, session) so that independent protocol rounds can
// interleave on one endpoint without stealing each other's messages,
// and whose Send is the one send path: it bounds, retries and
// fast-fails every send (see Mailbox.Send).
package transport

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
)

// Errors reported by transport implementations.
var (
	// ErrClosed indicates use of a closed endpoint or network.
	ErrClosed = errors.New("transport: endpoint closed")
	// ErrUnknownNode indicates a send to an unregistered node ID.
	ErrUnknownNode = errors.New("transport: unknown node")
	// ErrDropped indicates a message discarded by fault injection.
	ErrDropped = errors.New("transport: message dropped by fault injection")
)

// Message is the unit of communication between DLA participants.
type Message struct {
	// From is the sender node ID. Filled in by the endpoint on send.
	From string `json:"from"`
	// To is the destination node ID.
	To string `json:"to"`
	// Type discriminates the protocol (e.g. "intersect.relay",
	// "sum.share", "integrity.circulate").
	Type string `json:"type"`
	// Session identifies one protocol run so concurrent runs do not mix.
	Session string `json:"session"`
	// Payload is the encoded protocol body: a binary payload for
	// BinaryBody types, JSON for the rest (see payload.go).
	Payload []byte `json:"payload,omitempty"`
	// ReplyAddr optionally advertises the sender's listen address so
	// receivers on address-book transports (TCP) can dial back to
	// senders they did not know in advance — e.g. a client that joined
	// with an ephemeral port. In-memory transport ignores it.
	ReplyAddr string `json:"reply_addr,omitempty"`
	// TraceSession and TraceSpan carry distributed-tracing context: the
	// root trace session and the sender's active span ID, so the
	// receiver's spans stitch under the sender's in a cluster-wide
	// trace. Both are redaction-safe identifiers (session keys and
	// "<node>:<seq>" span IDs — secondary information only, never query
	// or record content).
	TraceSession string `json:"trace_session,omitempty"`
	TraceSpan    string `json:"trace_span,omitempty"`
}

// Endpoint is one node's attachment to the network.
type Endpoint interface {
	// ID returns the node ID this endpoint is registered under.
	ID() string
	// Send delivers the message to msg.To. The From field is stamped
	// with this endpoint's ID.
	Send(ctx context.Context, msg Message) error
	// Recv blocks for the next inbound message.
	Recv(ctx context.Context) (Message, error)
	// Close releases the endpoint. Pending and future Recv calls fail
	// with ErrClosed.
	Close() error
}

// Network creates endpoints bound to node IDs.
type Network interface {
	// Endpoint attaches a node to the network under the given ID.
	Endpoint(id string) (Endpoint, error)
}

// Marshal encodes a protocol body into a JSON message payload.
func Marshal(v any) ([]byte, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("transport: encoding payload: %w", err)
	}
	return b, nil
}
