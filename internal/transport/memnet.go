package transport

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// MemNetwork is an in-process network of channel-backed endpoints. It is
// safe for concurrent use.
//
// Fault injection hooks support the failure and chaos tests:
//
//   - WithLatency / WithLatencyJitter delay deliveries (fixed base plus
//     seeded random jitter);
//   - WithDropRate discards a seeded-random fraction of messages, so a
//     chaos run is reproducible from its seed;
//   - SetDropFn installs (or clears, with nil) an arbitrary drop
//     predicate at runtime — the general hook the others compose with;
//   - Partition cuts the listed node IDs off from the rest of the
//     network until healed with Partition() (no IDs).
//
// A message is dropped if the drop predicate or the drop rate selects
// it; the sender sees ErrDropped, exactly as protocols observe loss.
type MemNetwork struct {
	mu        sync.RWMutex
	endpoints map[string]*memEndpoint
	latency   time.Duration
	jitter    time.Duration
	dropRate  float64
	dropFn    func(Message) bool
	closed    bool

	rngMu sync.Mutex
	rng   *rand.Rand
}

// MemOption configures a MemNetwork.
type MemOption func(*MemNetwork)

// WithLatency delays every delivery by d, simulating a WAN between
// independent DLA organizations.
func WithLatency(d time.Duration) MemOption {
	return func(n *MemNetwork) { n.latency = d }
}

// WithLatencyJitter adds a uniformly random delay in [0, max) to every
// delivery, drawn from the network's seeded RNG (see WithSeed), so
// chaos schedules reorder messages deterministically.
func WithLatencyJitter(max time.Duration) MemOption {
	return func(n *MemNetwork) { n.jitter = max }
}

// WithDropRate discards the given fraction of deliveries (0 disables,
// 1 drops everything) using a seeded RNG so chaos runs are reproducible:
// the same seed yields the same loss pattern for the same message
// sequence.
func WithDropRate(rate float64, seed int64) MemOption {
	return func(n *MemNetwork) {
		n.dropRate = rate
		n.rng = rand.New(rand.NewSource(seed))
	}
}

// WithSeed seeds the network's RNG (used by WithLatencyJitter, and by
// WithDropRate unless it supplied its own seed).
func WithSeed(seed int64) MemOption {
	return func(n *MemNetwork) { n.rng = rand.New(rand.NewSource(seed)) }
}

// NewMemNetwork creates an empty in-memory network.
func NewMemNetwork(opts ...MemOption) *MemNetwork {
	n := &MemNetwork{endpoints: make(map[string]*memEndpoint)}
	for _, opt := range opts {
		opt(n)
	}
	if n.rng == nil {
		n.rng = rand.New(rand.NewSource(time.Now().UnixNano()))
	}
	return n
}

var _ Network = (*MemNetwork)(nil)

// Endpoint attaches (or re-attaches) a node ID. Re-attaching an ID that
// is still open fails, matching the invariant that a node ID is a single
// process.
func (n *MemNetwork) Endpoint(id string) (Endpoint, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, ErrClosed
	}
	if prev, ok := n.endpoints[id]; ok && !prev.isClosed() {
		return nil, fmt.Errorf("transport: node %q already attached", id)
	}
	ep := &memEndpoint{
		id:    id,
		net:   n,
		inbox: make(chan Message, 1024),
		done:  make(chan struct{}),
	}
	n.endpoints[id] = ep
	return ep, nil
}

// Close shuts the whole network down, closing every endpoint.
func (n *MemNetwork) Close() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil
	}
	n.closed = true
	for _, ep := range n.endpoints {
		ep.closeLocked()
	}
	return nil
}

// SetDropFn replaces the drop predicate at runtime (nil disables
// dropping). Used by failure-injection tests.
func (n *MemNetwork) SetDropFn(fn func(Message) bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.dropFn = fn
}

// Partition simulates a network partition by dropping all messages to or
// from the listed node IDs. Calling Partition() with no IDs heals it.
func (n *MemNetwork) Partition(ids ...string) {
	cut := make(map[string]struct{}, len(ids))
	for _, id := range ids {
		cut[id] = struct{}{}
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if len(cut) == 0 {
		n.dropFn = nil
		return
	}
	n.dropFn = func(m Message) bool {
		_, fromCut := cut[m.From]
		_, toCut := cut[m.To]
		return fromCut != toCut // only cross-partition traffic drops
	}
}

func (n *MemNetwork) deliver(ctx context.Context, msg Message) error {
	n.mu.RLock()
	drop := n.dropFn
	dropRate := n.dropRate
	latency := n.latency
	jitter := n.jitter
	dst, ok := n.endpoints[msg.To]
	closed := n.closed
	n.mu.RUnlock()

	if closed {
		return ErrClosed
	}
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownNode, msg.To)
	}
	if drop != nil && drop(msg) {
		return ErrDropped
	}
	if dropRate > 0 {
		n.rngMu.Lock()
		dropped := n.rng.Float64() < dropRate
		n.rngMu.Unlock()
		if dropped {
			return ErrDropped
		}
	}
	if jitter > 0 {
		n.rngMu.Lock()
		latency += time.Duration(n.rng.Int63n(int64(jitter)))
		n.rngMu.Unlock()
	}
	if latency > 0 {
		timer := time.NewTimer(latency)
		defer timer.Stop()
		select {
		case <-timer.C:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	// A closed destination must refuse the message rather than let it
	// land in the dead endpoint's buffer: the inbox channel stays
	// writable after close, and a select would nondeterministically
	// prefer it, making sends to crashed nodes silently "succeed".
	if dst.isClosed() {
		return fmt.Errorf("%w: destination %q", ErrClosed, msg.To)
	}
	select {
	case dst.inbox <- msg:
		return nil
	case <-dst.done:
		return fmt.Errorf("%w: destination %q", ErrClosed, msg.To)
	case <-ctx.Done():
		return ctx.Err()
	}
}

type memEndpoint struct {
	id    string
	net   *MemNetwork
	inbox chan Message

	closeOnce sync.Once
	done      chan struct{}
}

var _ Endpoint = (*memEndpoint)(nil)

func (e *memEndpoint) ID() string { return e.id }

func (e *memEndpoint) Send(ctx context.Context, msg Message) error {
	if e.isClosed() {
		return ErrClosed
	}
	msg.From = e.id
	return e.net.deliver(ctx, msg)
}

func (e *memEndpoint) Recv(ctx context.Context) (Message, error) {
	select {
	case msg := <-e.inbox:
		return msg, nil
	case <-e.done:
		// Drain anything already queued before reporting closed.
		select {
		case msg := <-e.inbox:
			return msg, nil
		default:
			return Message{}, ErrClosed
		}
	case <-ctx.Done():
		return Message{}, ctx.Err()
	}
}

func (e *memEndpoint) Close() error {
	e.closeLocked()
	return nil
}

func (e *memEndpoint) closeLocked() {
	e.closeOnce.Do(func() { close(e.done) })
}

func (e *memEndpoint) isClosed() bool {
	select {
	case <-e.done:
		return true
	default:
		return false
	}
}
