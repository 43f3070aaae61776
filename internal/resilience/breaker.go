package resilience

import (
	"sync"
	"time"

	"confaudit/internal/telemetry"
)

// BreakerState is a circuit breaker's position.
type BreakerState int

// Breaker states.
const (
	// BreakerClosed: sends flow normally; consecutive failures are
	// counted.
	BreakerClosed BreakerState = iota
	// BreakerOpen: sends fail fast with ErrPeerDown until the cool-down
	// elapses.
	BreakerOpen
	// BreakerHalfOpen: one probe send is admitted; its outcome decides
	// between closing and re-opening.
	BreakerHalfOpen
)

func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return "unknown"
	}
}

// Breaker is a per-peer circuit breaker. The zero value is not usable;
// create with NewPeerBreaker. Safe for concurrent use.
type Breaker struct {
	threshold int
	openFor   time.Duration
	peer      string // flight-recorder attribution

	mu       sync.Mutex
	state    BreakerState
	failures int
	openedAt time.Time
	probing  bool // a half-open probe is in flight
}

// NewPeerBreaker creates a closed breaker guarding the named peer that
// opens after threshold consecutive failures and admits a probe openFor
// after opening. Open/close transitions land in the flight recorder
// with the peer named.
func NewPeerBreaker(peer string, threshold int, openFor time.Duration) *Breaker {
	if threshold <= 0 {
		threshold = 5
	}
	if openFor <= 0 {
		openFor = time.Second
	}
	return &Breaker{peer: peer, threshold: threshold, openFor: openFor}
}

// Allow reports whether a send may proceed now. In the open state it
// returns false until the cool-down elapses, then transitions to
// half-open and admits exactly one probe until that probe reports an
// outcome.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return true
	case BreakerOpen:
		if time.Since(b.openedAt) < b.openFor {
			return false
		}
		b.state = BreakerHalfOpen
		b.probing = true
		return true
	case BreakerHalfOpen:
		if b.probing {
			return false
		}
		b.probing = true
		return true
	}
	return false
}

// Success records a successful send, closing the breaker. A recovery
// (the circuit was open or probing half-open) is a flight event; the
// routine closed→closed path records nothing.
func (b *Breaker) Success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	recovered := b.state != BreakerClosed
	b.state = BreakerClosed
	b.failures = 0
	b.probing = false
	if recovered {
		telemetry.F.Record(telemetry.FlightEvent{Kind: telemetry.FlightBreakerClose, Peer: b.peer, Outcome: "ok"})
	}
}

// Failure records a failed send. In the closed state it counts toward
// the threshold; in half-open it re-opens immediately.
func (b *Breaker) Failure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerHalfOpen:
		b.state = BreakerOpen
		b.openedAt = time.Now()
		b.probing = false
		b.tripLocked()
	case BreakerClosed:
		b.failures++
		if b.failures >= b.threshold {
			b.state = BreakerOpen
			b.openedAt = time.Now()
			b.tripLocked()
		}
	case BreakerOpen:
		// Already open; refresh nothing so the cool-down still elapses.
	}
}

// tripLocked records one →open transition. Caller holds b.mu.
func (b *Breaker) tripLocked() {
	telemetry.M.Counter(telemetry.CtrBreakerTrips).Add(1)
	telemetry.F.Record(telemetry.FlightEvent{
		Kind: telemetry.FlightBreakerOpen, Peer: b.peer, Count: b.failures, Outcome: "error",
	})
}
