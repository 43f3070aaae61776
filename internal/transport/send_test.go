package transport

import (
	"context"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// --- breaker ---

// stateNow reads the breaker's recorded position.
func (b *breaker) stateNow() breakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

func TestBreakerOpensAfterThreshold(t *testing.T) {
	b := newBreaker("B", 3, 50*time.Millisecond)
	for i := 0; i < 3; i++ {
		if !b.allow() {
			t.Fatalf("closed breaker refused send %d", i)
		}
		b.failure()
	}
	if s := b.stateNow(); s != breakerOpen {
		t.Fatalf("state after threshold failures = %d, want open", s)
	}
	if b.allow() {
		t.Fatal("open breaker admitted a send inside the cool-down")
	}
}

func TestBreakerHalfOpenProbe(t *testing.T) {
	b := newBreaker("B", 1, 10*time.Millisecond)
	b.allow()
	b.failure() // opens
	time.Sleep(20 * time.Millisecond)
	if !b.allow() {
		t.Fatal("breaker refused the half-open probe after cool-down")
	}
	// Only one probe is admitted while it is in flight.
	if b.allow() {
		t.Fatal("breaker admitted a second concurrent probe")
	}
	// A probe that says nothing about a stall frees the slot.
	b.release()
	if !b.allow() {
		t.Fatal("breaker refused a probe after the last one was released")
	}
	b.failure() // probe failed: re-open
	if b.allow() {
		t.Fatal("breaker admitted a send right after a failed probe")
	}
	time.Sleep(20 * time.Millisecond)
	if !b.allow() {
		t.Fatal("breaker refused the second probe")
	}
	b.success()
	if s := b.stateNow(); s != breakerClosed {
		t.Fatalf("state after successful probe = %d, want closed", s)
	}
	if !b.allow() {
		t.Fatal("closed breaker refused a send")
	}
}

// --- Mailbox.Send ---

// memPair attaches A (behind a mailbox) and B to a fresh network.
func memPair(t *testing.T, opts ...MemOption) (*MemNetwork, *Mailbox, Endpoint) {
	t.Helper()
	net := NewMemNetwork(opts...)
	t.Cleanup(func() { net.Close() }) //nolint:errcheck
	a, err := net.Endpoint("A")
	if err != nil {
		t.Fatal(err)
	}
	b, err := net.Endpoint("B")
	if err != nil {
		t.Fatal(err)
	}
	mb := NewMailbox(a)
	t.Cleanup(func() { mb.Close() }) //nolint:errcheck
	return net, mb, b
}

func TestMailboxSendRetriesTransientLoss(t *testing.T) {
	ctx := testCtx(t)
	net, mb, b := memPair(t)
	var attempts atomic.Int32
	net.SetDropFn(func(m Message) bool {
		// Drop the first two attempts of application traffic.
		return m.Type == "app" && attempts.Add(1) <= 2
	})
	if err := mb.Send(ctx, Message{To: "B", Type: "app", Session: "s"}); err != nil {
		t.Fatalf("send through transient loss: %v", err)
	}
	got, err := b.Recv(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != "app" || got.From != "A" {
		t.Fatalf("delivered %+v", got)
	}
	if n := attempts.Load(); n != 3 {
		t.Fatalf("attempts = %d, want 3 (two dropped, one through)", n)
	}
}

func TestMailboxSendNoRetryOnUnknownNode(t *testing.T) {
	ctx := testCtx(t)
	_, mb, _ := memPair(t)
	start := time.Now()
	err := mb.Send(ctx, Message{To: "nobody", Type: "app"})
	if !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("error = %v, want ErrUnknownNode", err)
	}
	if d := time.Since(start); d >= retryDelay {
		t.Fatalf("send to an unknown node took %v, want no retry", d)
	}
}

// A crashed peer is absent, not lossy: one attempt, and its breaker
// stays closed, so the send after its restart goes straight through.
func TestMailboxSendClosedDestinationOneAttempt(t *testing.T) {
	ctx := testCtx(t)
	net, mb, b := memPair(t)
	var attempts atomic.Int32
	net.SetDropFn(func(Message) bool { attempts.Add(1); return false })
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2*breakerThreshold; i++ {
		if err := mb.Send(ctx, Message{To: "B", Type: "app"}); !errors.Is(err, ErrClosed) {
			t.Fatalf("send %d to a closed destination: err = %v, want ErrClosed", i, err)
		}
	}
	if n := attempts.Load(); n != 2*breakerThreshold {
		t.Fatalf("attempts = %d for %d sends, want one each", n, 2*breakerThreshold)
	}
	if _, err := net.Endpoint("B"); err != nil {
		t.Fatal(err)
	}
	if err := mb.Send(ctx, Message{To: "B", Type: "app"}); err != nil {
		t.Fatalf("send after restart: %v", err)
	}
}

// A refused dial is TCP's closed destination: it fails at once with
// ErrClosed rather than backing off.
func TestMailboxSendRefusedDialFailsFast(t *testing.T) {
	ctx := testCtx(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := ln.Addr().String()
	if err := ln.Close(); err != nil {
		t.Fatal(err)
	}
	tn := NewTCPNetwork(map[string]string{"A": "127.0.0.1:0", "B": deadAddr})
	a, err := tn.Endpoint("A")
	if err != nil {
		t.Fatal(err)
	}
	mb := NewMailbox(a)
	defer mb.Close() //nolint:errcheck
	start := time.Now()
	err = mb.Send(ctx, Message{To: "B", Type: "app"})
	if d := time.Since(start); d >= retryDelay {
		t.Fatalf("refused dial took %v, want less than the first backoff %v", d, retryDelay)
	}
	if !errors.Is(err, ErrClosed) {
		t.Fatalf("refused dial: err = %v, want ErrClosed", err)
	}
}

// A stalled attempt is not retried and counts once toward the breaker;
// breakerThreshold of them open it, and the next send fails fast.
func TestMailboxSendStallTripsBreaker(t *testing.T) {
	t.Parallel()
	ctx := testCtx(t)
	net, mb, _ := memPair(t, WithLatency(time.Hour))
	var attempts atomic.Int32
	net.SetDropFn(func(Message) bool { attempts.Add(1); return false })
	var wg sync.WaitGroup
	errs := make(chan error, breakerThreshold)
	for i := 0; i < breakerThreshold; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs <- mb.Send(ctx, Message{To: "B", Type: "app"})
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("stalled send: err = %v, want the attempt deadline", err)
		}
	}
	if n := attempts.Load(); n != breakerThreshold {
		t.Fatalf("attempts = %d for %d stalled sends, want one each", n, breakerThreshold)
	}
	start := time.Now()
	err := mb.Send(ctx, Message{To: "B", Type: "app"})
	if !errors.Is(err, errPeerDown) {
		t.Fatalf("send after %d stalls: err = %v, want errPeerDown", breakerThreshold, err)
	}
	if d := time.Since(start); d >= retryDelay {
		t.Fatalf("open-circuit send took %v, want a fast failure", d)
	}
}
