// Package resilience is the fault-tolerance layer of the DLA cluster:
// it keeps the auditing protocols of the paper available while
// individual semi-trusted nodes crash, stall, or partition.
//
// Four cooperating pieces:
//
//   - ReliableEndpoint wraps a transport.Endpoint with per-send
//     deadlines, capped exponential backoff with jitter, and a per-peer
//     circuit breaker, so transient loss is retried and a dead peer
//     fails fast instead of consuming the retry budget;
//   - Breaker is the closed/open/half-open circuit breaker state
//     machine ReliableEndpoint keeps per peer;
//   - Detector is a heartbeat failure detector: it pings the roster on
//     the "health.ping" message type and classifies every peer as
//     alive, suspect, or dead, publishing transitions to subscribers;
//   - Outbox is a durable spool for messages addressed to an
//     unreachable peer, replayed when the detector marks the peer
//     alive again.
//
// Retried sends reuse the original (type, session) pair, so a
// duplicate delivery lands in the same mailbox queue the first copy
// would have used; every DLA protocol treats duplicate messages within
// a session as idempotent (acks are counted per node, protocol rounds
// key state by sender).
package resilience

import (
	"errors"
	"math/rand"
	"sync"
	"time"
)

// Errors reported by the resilience layer.
var (
	// ErrPeerDown indicates a send refused because the peer's circuit
	// breaker is open: recent sends failed and the cool-down has not
	// elapsed.
	ErrPeerDown = errors.New("resilience: peer circuit open")
	// ErrOutboxClosed indicates use of a closed outbox.
	ErrOutboxClosed = errors.New("resilience: outbox closed")
)

// Policy tunes ReliableEndpoint retries and circuit breaking. The zero
// value means "use defaults" for every field.
type Policy struct {
	// MaxAttempts bounds tries per send, first attempt included
	// (default 4).
	MaxAttempts int
	// BaseDelay is the backoff before the first retry (default 20ms);
	// it doubles per retry up to MaxDelay (default 1s). Each wait adds
	// up to half its own length of random jitter so retry storms from
	// many senders decorrelate.
	BaseDelay time.Duration
	MaxDelay  time.Duration
	// SendTimeout caps one attempt (default 2s). A send with no
	// context deadline would otherwise block on a stalled peer forever.
	SendTimeout time.Duration
	// FailureThreshold is the consecutive-failure count that opens a
	// peer's circuit (default 5).
	FailureThreshold int
	// OpenFor is how long an open circuit refuses sends before
	// admitting a half-open probe (default 1s).
	OpenFor time.Duration
	// Seed, when non-zero, makes the jitter sequence deterministic for
	// reproducible chaos runs.
	Seed int64
}

func (p Policy) withDefaults() Policy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 4
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 20 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = time.Second
	}
	if p.SendTimeout <= 0 {
		p.SendTimeout = 2 * time.Second
	}
	if p.FailureThreshold <= 0 {
		p.FailureThreshold = 5
	}
	if p.OpenFor <= 0 {
		p.OpenFor = time.Second
	}
	return p
}

// lockedRand is a mutex-guarded rand.Rand: the global seeded source
// must serialize concurrent senders.
type lockedRand struct {
	mu  sync.Mutex
	rng *rand.Rand
}

func newLockedRand(seed int64) *lockedRand {
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	return &lockedRand{rng: rand.New(rand.NewSource(seed))}
}

// jitter returns a random duration in [0, d).
func (l *lockedRand) jitter(d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return time.Duration(l.rng.Int63n(int64(d)))
}
