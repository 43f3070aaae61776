package resilience

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"confaudit/internal/telemetry"
	"confaudit/internal/transport"
)

// ReliableEndpoint decorates a transport.Endpoint with per-send
// deadlines, capped exponential backoff with jitter, and a per-peer
// circuit breaker. Recv, ID, and Close delegate unchanged, so it drops
// into any place a raw endpoint is used (including under a Mailbox).
type ReliableEndpoint struct {
	inner  transport.Endpoint
	policy Policy
	rng    *lockedRand

	mu       sync.Mutex
	breakers map[string]*Breaker
}

var _ transport.Endpoint = (*ReliableEndpoint)(nil)

// Wrap decorates an endpoint with the policy (zero fields take
// defaults).
func Wrap(inner transport.Endpoint, p Policy) *ReliableEndpoint {
	p = p.withDefaults()
	return &ReliableEndpoint{
		inner:    inner,
		policy:   p,
		rng:      newLockedRand(p.Seed),
		breakers: make(map[string]*Breaker),
	}
}

// ID returns the wrapped endpoint's node ID.
func (r *ReliableEndpoint) ID() string { return r.inner.ID() }

// Recv delegates to the wrapped endpoint.
func (r *ReliableEndpoint) Recv(ctx context.Context) (transport.Message, error) {
	return r.inner.Recv(ctx)
}

// Close delegates to the wrapped endpoint.
func (r *ReliableEndpoint) Close() error { return r.inner.Close() }

func (r *ReliableEndpoint) breaker(peer string) *Breaker {
	r.mu.Lock()
	defer r.mu.Unlock()
	br, ok := r.breakers[peer]
	if !ok {
		br = NewPeerBreaker(peer, r.policy.FailureThreshold, r.policy.OpenFor)
		r.breakers[peer] = br
	}
	return br
}

// permanent reports errors no retry can fix.
func permanent(err error) bool {
	return errors.Is(err, transport.ErrUnknownNode)
}

// Send delivers msg.To with retries. Each attempt is bounded by the
// policy's SendTimeout (and the caller's context); failed attempts back
// off exponentially with jitter. When the peer's circuit is open the
// send fails immediately with an error wrapping ErrPeerDown. The retry
// reuses the original (type, session) pair so a duplicate delivery is
// idempotent at the receiving mailbox.
func (r *ReliableEndpoint) Send(ctx context.Context, msg transport.Message) error {
	br := r.breaker(msg.To)
	if !br.Allow() {
		telemetry.M.Counter(telemetry.CtrBreakerDenied).Add(1)
		return fmt.Errorf("%w: %q", ErrPeerDown, msg.To)
	}
	var err error
	delay := r.policy.BaseDelay
	for attempt := 0; attempt < r.policy.MaxAttempts; attempt++ {
		if attempt > 0 {
			telemetry.M.Counter(telemetry.CtrRetries).Add(1)
			wait := delay + r.rng.jitter(delay/2)
			delay *= 2
			if delay > r.policy.MaxDelay {
				delay = r.policy.MaxDelay
			}
			timer := time.NewTimer(wait)
			select {
			case <-timer.C:
			case <-ctx.Done():
				timer.Stop()
				return ctx.Err()
			}
			// The breaker may have been opened by concurrent senders
			// while this one backed off.
			if !br.Allow() {
				telemetry.M.Counter(telemetry.CtrBreakerDenied).Add(1)
				return fmt.Errorf("%w: %q", ErrPeerDown, msg.To)
			}
		}
		attemptCtx, cancel := context.WithTimeout(ctx, r.policy.SendTimeout)
		err = r.inner.Send(attemptCtx, msg)
		cancel()
		if err == nil {
			br.Success()
			return nil
		}
		br.Failure()
		if ctx.Err() != nil {
			return err
		}
		if permanent(err) {
			return err
		}
	}
	return fmt.Errorf("resilience: send to %q failed after %d attempts: %w",
		msg.To, r.policy.MaxAttempts, err)
}
