package transport

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"sync"
	"time"

	"confaudit/internal/telemetry"
)

func immediateDeadline() time.Time { return time.Unix(1, 0) }
func noDeadline() time.Time        { return time.Time{} }

// maxQueuedMessages bounds the total number of messages parked in a
// mailbox with no waiter. Long-running nodes accumulate stragglers from
// completed protocol sessions (e.g. a late error report after the
// result already went out); beyond the cap the oldest parked message is
// dropped, which is safe because every protocol treats message loss as
// a timeout.
const maxQueuedMessages = 8192

// Mailbox demultiplexes an endpoint's inbound stream by (Type, Session)
// so independent protocol rounds can interleave without stealing each
// other's messages. A single pump goroutine owns Recv; consumers wait on
// typed queues.
type Mailbox struct {
	ep Endpoint

	mu        sync.Mutex
	queues    map[mailKey][]Message
	order     []mailKey // arrival order of queued keys, for ExpectType
	waits     map[mailKey][]chan Message
	typeWaits map[string][]chan Message
	err       error

	brMu     sync.Mutex
	breakers map[string]*breaker

	closeOnce sync.Once
	done      chan struct{}
	pumped    sync.WaitGroup
}

type mailKey struct {
	typ     string
	session string
}

// NewMailbox wraps an endpoint and starts its pump goroutine. Close the
// mailbox (not the raw endpoint) when done.
func NewMailbox(ep Endpoint) *Mailbox {
	m := &Mailbox{
		ep:        ep,
		queues:    make(map[mailKey][]Message),
		waits:     make(map[mailKey][]chan Message),
		typeWaits: make(map[string][]chan Message),
		breakers:  make(map[string]*breaker),
		done:      make(chan struct{}),
	}
	m.pumped.Add(1)
	go m.pump()
	return m
}

// ID returns the underlying endpoint's node ID.
func (m *Mailbox) ID() string { return m.ep.ID() }

// The send policy. Every message leaves through Mailbox.Send, so these
// bound, retry and fast-fail every send in the module.
const (
	// attemptTimeout caps one attempt, so a send with no context
	// deadline cannot block on a stalled peer forever.
	attemptTimeout = 2 * time.Second
	// maxAttempts bounds the tries per lost send, the first included.
	maxAttempts = 4
	// retryDelay is the backoff before the first retry; it doubles per
	// retry up to maxRetryDelay. Each wait adds up to half its own
	// length of random jitter so retry storms from many senders
	// decorrelate.
	retryDelay    = 20 * time.Millisecond
	maxRetryDelay = time.Second
	// breakerThreshold stalled sends in a row open a peer's circuit;
	// an open circuit refuses sends for breakerOpenFor, then admits a
	// half-open probe.
	breakerThreshold = 5
	breakerOpenFor   = time.Second
)

// errPeerDown reports a send refused because the peer's circuit is
// open: its recent sends stalled and the cool-down has not elapsed.
var errPeerDown = errors.New("transport: peer circuit open")

// Send delivers msg to msg.To. Each attempt runs under ctx and
// attemptTimeout, and its failure decides what follows:
//
//   - an absent peer (ErrUnknownNode, ErrClosed: our endpoint closed,
//     the destination closed, or a refused dial) fails at once;
//   - a stall (the attempt deadline expired while ctx is live) fails
//     at once and counts toward the peer's circuit breaker; while the
//     circuit is open, sends to the peer fail fast with errPeerDown;
//   - any other failure is loss, retried up to maxAttempts with capped
//     exponential backoff and jitter.
//
// Retries reuse the original (type, session) pair, so a duplicate
// delivery lands in the queue the first copy would have used; every
// protocol treats duplicates within a session as idempotent.
//
// Successful sends are counted per protocol message type (type and
// payload size only — the payload itself is never inspected). When the
// context carries an active telemetry span, its trace reference is
// stamped into the envelope so the receiver's spans stitch under it in
// a cluster-wide trace — identifiers only, per the zero-plaintext
// contract.
func (m *Mailbox) Send(ctx context.Context, msg Message) error {
	if msg.TraceSession == "" && msg.TraceSpan == "" {
		msg.TraceSession, msg.TraceSpan = telemetry.SpanRef(ctx)
	}
	br := m.breaker(msg.To)
	if !br.allow() {
		telemetry.M.Counter(telemetry.CtrBreakerDenied).Add(1)
		return fmt.Errorf("%w: %q", errPeerDown, msg.To)
	}
	delay := retryDelay
	for attempt := 1; ; attempt++ {
		actx, cancel := context.WithTimeout(ctx, attemptTimeout)
		err := m.ep.Send(actx, msg)
		stalled := actx.Err() != nil && ctx.Err() == nil
		cancel()
		switch {
		case err == nil:
			br.success()
			telemetry.SentTo(msg.Type, len(msg.Payload))
			return nil
		case stalled:
			br.failure()
			return fmt.Errorf("transport: send to %q stalled: %w", msg.To, err)
		case ctx.Err() != nil || errors.Is(err, ErrUnknownNode) || errors.Is(err, ErrClosed):
			br.release()
			return err
		case attempt == maxAttempts:
			br.release()
			return fmt.Errorf("transport: send to %q failed after %d attempts: %w", msg.To, attempt, err)
		}
		telemetry.M.Counter(telemetry.CtrRetries).Add(1)
		timer := time.NewTimer(delay + rand.N(delay/2))
		select {
		case <-timer.C:
		case <-ctx.Done():
			timer.Stop()
			br.release()
			return ctx.Err()
		}
		delay = min(2*delay, maxRetryDelay)
	}
}

// breaker returns the circuit breaker guarding sends to peer.
func (m *Mailbox) breaker(peer string) *breaker {
	m.brMu.Lock()
	defer m.brMu.Unlock()
	br, ok := m.breakers[peer]
	if !ok {
		br = newBreaker(peer, breakerThreshold, breakerOpenFor)
		m.breakers[peer] = br
	}
	return br
}

func (m *Mailbox) pump() {
	defer m.pumped.Done()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// The watcher must also exit when the pump returns on its own (the
	// endpoint was closed underneath us without Mailbox.Close), or it
	// would block on m.done forever — one leaked goroutine per mailbox.
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		select {
		case <-m.done:
			cancel()
		case <-stop:
		}
	}()
	for {
		msg, err := m.ep.Recv(ctx)
		if err != nil {
			m.mu.Lock()
			m.err = err
			// Wake every waiter with a zero message; they observe err.
			for k, ws := range m.waits {
				for _, w := range ws {
					close(w)
				}
				delete(m.waits, k)
			}
			for k, ws := range m.typeWaits {
				for _, w := range ws {
					close(w)
				}
				delete(m.typeWaits, k)
			}
			m.mu.Unlock()
			return
		}
		telemetry.Received(msg.Type, len(msg.Payload))
		key := mailKey{typ: msg.Type, session: msg.Session}
		m.mu.Lock()
		if ws := m.waits[key]; len(ws) > 0 {
			w := ws[0]
			if len(ws) == 1 {
				delete(m.waits, key)
			} else {
				m.waits[key] = ws[1:]
			}
			w <- msg
			close(w)
		} else if tws := m.typeWaits[msg.Type]; len(tws) > 0 {
			w := tws[0]
			if len(tws) == 1 {
				delete(m.typeWaits, msg.Type)
			} else {
				m.typeWaits[msg.Type] = tws[1:]
			}
			w <- msg
			close(w)
		} else {
			if len(m.order) >= maxQueuedMessages {
				// Evict the oldest parked message.
				oldest := m.order[0]
				m.popQueued(oldest)
			}
			m.queues[key] = append(m.queues[key], msg)
			m.order = append(m.order, key)
		}
		m.mu.Unlock()
	}
}

// popQueued removes and returns the oldest queued message for key.
// Caller holds m.mu and has checked the queue is non-empty.
func (m *Mailbox) popQueued(key mailKey) Message {
	q := m.queues[key]
	msg := q[0]
	if len(q) == 1 {
		delete(m.queues, key)
	} else {
		m.queues[key] = q[1:]
	}
	for i, k := range m.order {
		if k == key {
			m.order = append(m.order[:i:i], m.order[i+1:]...)
			break
		}
	}
	return msg
}

// Expect blocks until a message with the given type and session arrives
// (or is already queued).
func (m *Mailbox) Expect(ctx context.Context, typ, session string) (Message, error) {
	key := mailKey{typ: typ, session: session}
	m.mu.Lock()
	if q := m.queues[key]; len(q) > 0 {
		msg := m.popQueued(key)
		m.mu.Unlock()
		return msg, nil
	}
	if m.err != nil {
		err := m.err
		m.mu.Unlock()
		return Message{}, err
	}
	w := make(chan Message, 1)
	m.waits[key] = append(m.waits[key], w)
	m.mu.Unlock()

	select {
	case msg, ok := <-w:
		if !ok {
			m.mu.Lock()
			err := m.err
			m.mu.Unlock()
			if err == nil {
				err = ErrClosed
			}
			return Message{}, err
		}
		return msg, nil
	case <-ctx.Done():
		m.cancelWait(key, w)
		return Message{}, ctx.Err()
	}
}

func (m *Mailbox) cancelWait(key mailKey, w chan Message) {
	m.mu.Lock()
	defer m.mu.Unlock()
	ws := m.waits[key]
	for i, cand := range ws {
		if cand == w {
			m.waits[key] = append(ws[:i:i], ws[i+1:]...)
			if len(m.waits[key]) == 0 {
				delete(m.waits, key)
			}
			return
		}
	}
	// The pump may have delivered concurrently with cancellation; requeue
	// the message so it is not lost.
	select {
	case msg, ok := <-w:
		if ok {
			m.queues[key] = append(m.queues[key], msg)
			m.order = append(m.order, key)
		}
	default:
	}
}

// ExpectType blocks until a message of the given type arrives, whatever
// its session. This is the request-dispatch primitive for servers that
// cannot know session IDs in advance; protocol handlers spawned from the
// request then use Expect with the session carried by the request.
func (m *Mailbox) ExpectType(ctx context.Context, typ string) (Message, error) {
	m.mu.Lock()
	// Oldest queued message of this type, across sessions.
	for _, key := range m.order {
		if key.typ == typ && len(m.queues[key]) > 0 {
			msg := m.popQueued(key)
			m.mu.Unlock()
			return msg, nil
		}
	}
	if m.err != nil {
		err := m.err
		m.mu.Unlock()
		return Message{}, err
	}
	w := make(chan Message, 1)
	m.typeWaits[typ] = append(m.typeWaits[typ], w)
	m.mu.Unlock()

	select {
	case msg, ok := <-w:
		if !ok {
			m.mu.Lock()
			err := m.err
			m.mu.Unlock()
			if err == nil {
				err = ErrClosed
			}
			return Message{}, err
		}
		return msg, nil
	case <-ctx.Done():
		m.cancelTypeWait(typ, w)
		return Message{}, ctx.Err()
	}
}

func (m *Mailbox) cancelTypeWait(typ string, w chan Message) {
	m.mu.Lock()
	defer m.mu.Unlock()
	ws := m.typeWaits[typ]
	for i, cand := range ws {
		if cand == w {
			m.typeWaits[typ] = append(ws[:i:i], ws[i+1:]...)
			if len(m.typeWaits[typ]) == 0 {
				delete(m.typeWaits, typ)
			}
			return
		}
	}
	select {
	case msg, ok := <-w:
		if ok {
			key := mailKey{typ: msg.Type, session: msg.Session}
			m.queues[key] = append(m.queues[key], msg)
			m.order = append(m.order, key)
		}
	default:
	}
}

// ExpectFrom waits for a message of the given type and session from a
// specific sender, requeueing any interleaved messages from others.
func (m *Mailbox) ExpectFrom(ctx context.Context, from, typ, session string) (Message, error) {
	var stash []Message
	defer func() {
		if len(stash) == 0 {
			return
		}
		key := mailKey{typ: typ, session: session}
		m.mu.Lock()
		m.queues[key] = append(stash, m.queues[key]...)
		for range stash {
			m.order = append(m.order, key)
		}
		m.mu.Unlock()
	}()
	for {
		msg, err := m.Expect(ctx, typ, session)
		if err != nil {
			return Message{}, err
		}
		if msg.From == from {
			return msg, nil
		}
		stash = append(stash, msg)
	}
}

// Close stops the pump and closes the underlying endpoint.
func (m *Mailbox) Close() error {
	var err error
	m.closeOnce.Do(func() {
		close(m.done)
		err = m.ep.Close()
	})
	m.pumped.Wait()
	return err
}
