package transport

import (
	"sync"
	"time"

	"confaudit/internal/telemetry"
)

// breakerState is a circuit breaker's position.
type breakerState int

const (
	// breakerClosed: sends flow normally; consecutive stalls are
	// counted.
	breakerClosed breakerState = iota
	// breakerOpen: sends fail fast with errPeerDown until the cool-down
	// elapses.
	breakerOpen
	// breakerHalfOpen: one probe send is admitted; its outcome decides
	// between closing and re-opening.
	breakerHalfOpen
)

// breaker is a per-peer circuit breaker. Safe for concurrent use.
type breaker struct {
	threshold int
	openFor   time.Duration
	peer      string // flight-recorder attribution

	mu       sync.Mutex
	state    breakerState
	failures int
	openedAt time.Time
	probing  bool // a half-open probe is in flight
}

// newBreaker creates a closed breaker guarding the named peer that
// opens after threshold consecutive failures and admits a probe openFor
// after opening. Open/close transitions land in the flight recorder
// with the peer named.
func newBreaker(peer string, threshold int, openFor time.Duration) *breaker {
	return &breaker{peer: peer, threshold: threshold, openFor: openFor}
}

// allow reports whether a send may proceed now. In the open state it
// returns false until the cool-down elapses, then transitions to
// half-open and admits exactly one probe until that probe reports an
// outcome.
func (b *breaker) allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return true
	case breakerOpen:
		if time.Since(b.openedAt) < b.openFor {
			return false
		}
		b.state = breakerHalfOpen
		b.probing = true
		return true
	case breakerHalfOpen:
		if b.probing {
			return false
		}
		b.probing = true
		return true
	}
	return false
}

// success records a delivered send, closing the breaker. A recovery
// (the circuit was open or probing half-open) is a flight event; the
// routine closed→closed path records nothing.
func (b *breaker) success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	recovered := b.state != breakerClosed
	b.state = breakerClosed
	b.failures = 0
	b.probing = false
	if recovered {
		telemetry.F.Record(telemetry.FlightEvent{Kind: telemetry.FlightBreakerClose, Peer: b.peer, Outcome: "ok"})
	}
}

// failure records a stalled send. In the closed state it counts toward
// the threshold; in half-open it re-opens immediately.
func (b *breaker) failure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerHalfOpen:
		b.state = breakerOpen
		b.openedAt = time.Now()
		b.probing = false
		b.tripLocked()
	case breakerClosed:
		b.failures++
		if b.failures >= b.threshold {
			b.state = breakerOpen
			b.openedAt = time.Now()
			b.tripLocked()
		}
	case breakerOpen:
		// Already open; refresh nothing so the cool-down still elapses.
	}
}

// release ends a send that says nothing about a stall (the caller gave
// up, the peer is absent, or loss outlasted the retries): the state is
// unchanged, but a half-open probe slot is freed for the next send.
func (b *breaker) release() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.probing = false
}

// tripLocked records one →open transition. Caller holds b.mu.
func (b *breaker) tripLocked() {
	telemetry.M.Counter(telemetry.CtrBreakerTrips).Add(1)
	telemetry.F.Record(telemetry.FlightEvent{
		Kind: telemetry.FlightBreakerOpen, Peer: b.peer, Count: b.failures, Outcome: "error",
	})
}
