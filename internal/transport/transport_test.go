package transport

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

func testCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	t.Cleanup(cancel)
	return ctx
}

func TestMemNetworkSendRecv(t *testing.T) {
	ctx := testCtx(t)
	net := NewMemNetwork()
	defer net.Close() //nolint:errcheck

	a, err := net.Endpoint("A")
	if err != nil {
		t.Fatal(err)
	}
	b, err := net.Endpoint("B")
	if err != nil {
		t.Fatal(err)
	}
	msg, err := NewMessage("B", "test", "s1", map[string]int{"x": 42})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Send(ctx, msg); err != nil {
		t.Fatal(err)
	}
	got, err := b.Recv(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got.From != "A" || got.To != "B" || got.Type != "test" || got.Session != "s1" {
		t.Fatalf("unexpected envelope: %+v", got)
	}
	var body map[string]int
	if err := Unmarshal(got.Payload, &body); err != nil {
		t.Fatal(err)
	}
	if body["x"] != 42 {
		t.Fatalf("payload = %v", body)
	}
}

func TestMemNetworkUnknownNode(t *testing.T) {
	ctx := testCtx(t)
	net := NewMemNetwork()
	defer net.Close() //nolint:errcheck
	a, err := net.Endpoint("A")
	if err != nil {
		t.Fatal(err)
	}
	err = a.Send(ctx, Message{To: "missing", Type: "t"})
	if !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("err = %v, want ErrUnknownNode", err)
	}
}

func TestMemNetworkDuplicateAttach(t *testing.T) {
	net := NewMemNetwork()
	defer net.Close() //nolint:errcheck
	if _, err := net.Endpoint("A"); err != nil {
		t.Fatal(err)
	}
	if _, err := net.Endpoint("A"); err == nil {
		t.Fatal("duplicate attach of open endpoint accepted")
	}
}

func TestMemNetworkReattachAfterClose(t *testing.T) {
	net := NewMemNetwork()
	defer net.Close() //nolint:errcheck
	a, err := net.Endpoint("A")
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := net.Endpoint("A"); err != nil {
		t.Fatalf("reattach after close failed: %v", err)
	}
}

func TestMemNetworkClosedEndpoint(t *testing.T) {
	ctx := testCtx(t)
	net := NewMemNetwork()
	defer net.Close() //nolint:errcheck
	a, err := net.Endpoint("A")
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(ctx, Message{To: "A"}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Send on closed endpoint: err = %v, want ErrClosed", err)
	}
	if _, err := a.Recv(ctx); !errors.Is(err, ErrClosed) {
		t.Fatalf("Recv on closed endpoint: err = %v, want ErrClosed", err)
	}
}

func TestMemNetworkDropFn(t *testing.T) {
	ctx := testCtx(t)
	net := NewMemNetwork()
	defer net.Close() //nolint:errcheck
	net.SetDropFn(func(m Message) bool { return m.Type == "lossy" })
	a, err := net.Endpoint("A")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Endpoint("B"); err != nil {
		t.Fatal(err)
	}
	err = a.Send(ctx, Message{To: "B", Type: "lossy"})
	if !errors.Is(err, ErrDropped) {
		t.Fatalf("err = %v, want ErrDropped", err)
	}
	if err := a.Send(ctx, Message{To: "B", Type: "reliable"}); err != nil {
		t.Fatalf("non-matching message dropped: %v", err)
	}
}

func TestMemNetworkPartition(t *testing.T) {
	ctx := testCtx(t)
	net := NewMemNetwork()
	defer net.Close() //nolint:errcheck
	a, err := net.Endpoint("A")
	if err != nil {
		t.Fatal(err)
	}
	b, err := net.Endpoint("B")
	if err != nil {
		t.Fatal(err)
	}
	c, err := net.Endpoint("C")
	if err != nil {
		t.Fatal(err)
	}
	net.Partition("C")
	if err := a.Send(ctx, Message{To: "C"}); !errors.Is(err, ErrDropped) {
		t.Fatalf("cross-partition send: err = %v, want ErrDropped", err)
	}
	if err := c.Send(ctx, Message{To: "A"}); !errors.Is(err, ErrDropped) {
		t.Fatalf("cross-partition send: err = %v, want ErrDropped", err)
	}
	if err := a.Send(ctx, Message{To: "B"}); err != nil {
		t.Fatalf("same-side send failed: %v", err)
	}
	if _, err := b.Recv(ctx); err != nil {
		t.Fatal(err)
	}
	net.Partition() // heal
	if err := a.Send(ctx, Message{To: "C"}); err != nil {
		t.Fatalf("send after heal failed: %v", err)
	}
}

func TestMemNetworkLatency(t *testing.T) {
	ctx := testCtx(t)
	const lat = 30 * time.Millisecond
	net := NewMemNetwork(WithLatency(lat))
	defer net.Close() //nolint:errcheck
	a, err := net.Endpoint("A")
	if err != nil {
		t.Fatal(err)
	}
	b, err := net.Endpoint("B")
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := a.Send(ctx, Message{To: "B"}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Recv(ctx); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < lat {
		t.Fatalf("delivery took %v, want at least %v", elapsed, lat)
	}
}

func TestMemNetworkConcurrentSenders(t *testing.T) {
	ctx := testCtx(t)
	net := NewMemNetwork()
	defer net.Close() //nolint:errcheck
	sink, err := net.Endpoint("sink")
	if err != nil {
		t.Fatal(err)
	}
	const (
		senders = 8
		each    = 50
	)
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		ep, err := net.Endpoint(fmt.Sprintf("s%d", s))
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(ep Endpoint) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := ep.Send(ctx, Message{To: "sink", Type: "n"}); err != nil {
					t.Errorf("send: %v", err)
					return
				}
			}
		}(ep)
	}
	got := 0
	done := make(chan struct{})
	go func() {
		defer close(done)
		for got < senders*each {
			if _, err := sink.Recv(ctx); err != nil {
				t.Errorf("recv: %v", err)
				return
			}
			got++
		}
	}()
	wg.Wait()
	<-done
	if got != senders*each {
		t.Fatalf("received %d messages, want %d", got, senders*each)
	}
}

func TestTCPNetworkSendRecv(t *testing.T) {
	ctx := testCtx(t)
	net := NewTCPNetwork(map[string]string{
		"A": "127.0.0.1:0",
		"B": "127.0.0.1:0",
	})
	a, err := net.Endpoint("A")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close() //nolint:errcheck
	b, err := net.Endpoint("B")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close() //nolint:errcheck

	msg, err := NewMessage("B", "ping", "s", "hello over TCP")
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Send(ctx, msg); err != nil {
		t.Fatal(err)
	}
	got, err := b.Recv(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var body string
	if err := Unmarshal(got.Payload, &body); err != nil {
		t.Fatal(err)
	}
	if got.From != "A" || body != "hello over TCP" {
		t.Fatalf("got %+v body %q", got, body)
	}

	// Reply flows over a fresh reverse connection.
	reply, err := NewMessage("A", "pong", "s", "reply")
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Send(ctx, reply); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Recv(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestTCPNetworkManyMessages(t *testing.T) {
	ctx := testCtx(t)
	net := NewTCPNetwork(map[string]string{
		"A": "127.0.0.1:0",
		"B": "127.0.0.1:0",
	})
	a, err := net.Endpoint("A")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close() //nolint:errcheck
	b, err := net.Endpoint("B")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close() //nolint:errcheck

	const count = 200
	for i := 0; i < count; i++ {
		msg, err := NewMessage("B", "seq", "s", i)
		if err != nil {
			t.Fatal(err)
		}
		if err := a.Send(ctx, msg); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < count; i++ {
		got, err := b.Recv(ctx)
		if err != nil {
			t.Fatal(err)
		}
		var n int
		if err := Unmarshal(got.Payload, &n); err != nil {
			t.Fatal(err)
		}
		if n != i {
			t.Fatalf("message %d arrived out of order as %d", i, n)
		}
	}
}

func TestTCPNetworkUnknownNode(t *testing.T) {
	ctx := testCtx(t)
	net := NewTCPNetwork(map[string]string{"A": "127.0.0.1:0"})
	a, err := net.Endpoint("A")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close() //nolint:errcheck
	if err := a.Send(ctx, Message{To: "ghost"}); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("err = %v, want ErrUnknownNode", err)
	}
}

func TestTCPNetworkCloseUnblocksRecv(t *testing.T) {
	net := NewTCPNetwork(map[string]string{"A": "127.0.0.1:0"})
	a, err := net.Endpoint("A")
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		_, err := a.Recv(context.Background())
		errc <- err
	}()
	time.Sleep(20 * time.Millisecond)
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errc:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("Recv err = %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Recv did not unblock on Close")
	}
}

func TestMailboxDemux(t *testing.T) {
	ctx := testCtx(t)
	net := NewMemNetwork()
	defer net.Close() //nolint:errcheck
	aEp, err := net.Endpoint("A")
	if err != nil {
		t.Fatal(err)
	}
	bEp, err := net.Endpoint("B")
	if err != nil {
		t.Fatal(err)
	}
	b := NewMailbox(bEp)
	defer b.Close() //nolint:errcheck

	// Send messages for two different sessions interleaved.
	for i, session := range []string{"s2", "s1", "s2", "s1"} {
		msg, err := NewMessage("B", "round", session, i)
		if err != nil {
			t.Fatal(err)
		}
		if err := aEp.Send(ctx, msg); err != nil {
			t.Fatal(err)
		}
	}
	// s1 consumer sees only s1 messages in order.
	for _, want := range []int{1, 3} {
		got, err := b.Expect(ctx, "round", "s1")
		if err != nil {
			t.Fatal(err)
		}
		var n int
		if err := Unmarshal(got.Payload, &n); err != nil {
			t.Fatal(err)
		}
		if n != want {
			t.Fatalf("s1 got %d, want %d", n, want)
		}
	}
	for _, want := range []int{0, 2} {
		got, err := b.Expect(ctx, "round", "s2")
		if err != nil {
			t.Fatal(err)
		}
		var n int
		if err := Unmarshal(got.Payload, &n); err != nil {
			t.Fatal(err)
		}
		if n != want {
			t.Fatalf("s2 got %d, want %d", n, want)
		}
	}
}

func TestMailboxExpectBeforeArrival(t *testing.T) {
	ctx := testCtx(t)
	net := NewMemNetwork()
	defer net.Close() //nolint:errcheck
	aEp, err := net.Endpoint("A")
	if err != nil {
		t.Fatal(err)
	}
	bEp, err := net.Endpoint("B")
	if err != nil {
		t.Fatal(err)
	}
	b := NewMailbox(bEp)
	defer b.Close() //nolint:errcheck

	got := make(chan Message, 1)
	go func() {
		msg, err := b.Expect(ctx, "late", "s")
		if err != nil {
			t.Errorf("Expect: %v", err)
			return
		}
		got <- msg
	}()
	time.Sleep(10 * time.Millisecond)
	if err := aEp.Send(ctx, Message{To: "B", Type: "late", Session: "s"}); err != nil {
		t.Fatal(err)
	}
	select {
	case msg := <-got:
		if msg.From != "A" {
			t.Fatalf("From = %q", msg.From)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Expect never received the message")
	}
}

func TestMailboxExpectFrom(t *testing.T) {
	ctx := testCtx(t)
	net := NewMemNetwork()
	defer net.Close() //nolint:errcheck
	mk := func(id string) Endpoint {
		ep, err := net.Endpoint(id)
		if err != nil {
			t.Fatal(err)
		}
		return ep
	}
	a, c := mk("A"), mk("C")
	b := NewMailbox(mk("B"))
	defer b.Close() //nolint:errcheck

	if err := c.Send(ctx, Message{To: "B", Type: "t", Session: "s"}); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(ctx, Message{To: "B", Type: "t", Session: "s"}); err != nil {
		t.Fatal(err)
	}
	got, err := b.ExpectFrom(ctx, "A", "t", "s")
	if err != nil {
		t.Fatal(err)
	}
	if got.From != "A" {
		t.Fatalf("From = %q, want A", got.From)
	}
	// The interleaved C message is requeued, not lost.
	got, err = b.ExpectFrom(ctx, "C", "t", "s")
	if err != nil {
		t.Fatal(err)
	}
	if got.From != "C" {
		t.Fatalf("From = %q, want C", got.From)
	}
}

func TestMailboxContextCancel(t *testing.T) {
	net := NewMemNetwork()
	defer net.Close() //nolint:errcheck
	ep, err := net.Endpoint("A")
	if err != nil {
		t.Fatal(err)
	}
	m := NewMailbox(ep)
	defer m.Close() //nolint:errcheck
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := m.Expect(ctx, "never", "s"); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
}

func TestMailboxCloseUnblocksExpect(t *testing.T) {
	net := NewMemNetwork()
	defer net.Close() //nolint:errcheck
	ep, err := net.Endpoint("A")
	if err != nil {
		t.Fatal(err)
	}
	m := NewMailbox(ep)
	errc := make(chan error, 1)
	go func() {
		_, err := m.Expect(context.Background(), "never", "s")
		errc <- err
	}()
	time.Sleep(10 * time.Millisecond)
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("Expect returned nil after Close")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Expect did not unblock on Close")
	}
}

func TestMarshalUnmarshalErrors(t *testing.T) {
	if _, err := Marshal(make(chan int)); err == nil {
		t.Fatal("Marshal of channel should fail")
	}
	var v int
	if err := Unmarshal([]byte("{not json"), &v); err == nil {
		t.Fatal("Unmarshal of garbage should fail")
	}
	if _, err := NewMessage("B", "t", "s", make(chan int)); err == nil {
		t.Fatal("NewMessage with unencodable body should fail")
	}
}

func BenchmarkMemNetworkRoundTrip(b *testing.B) {
	ctx := context.Background()
	net := NewMemNetwork()
	defer net.Close() //nolint:errcheck
	a, err := net.Endpoint("A")
	if err != nil {
		b.Fatal(err)
	}
	sink, err := net.Endpoint("B")
	if err != nil {
		b.Fatal(err)
	}
	msg := Message{To: "B", Type: "bench", Payload: make([]byte, 256)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := a.Send(ctx, msg); err != nil {
			b.Fatal(err)
		}
		if _, err := sink.Recv(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTCPNetworkRoundTrip(b *testing.B) {
	ctx := context.Background()
	net := NewTCPNetwork(map[string]string{
		"A": "127.0.0.1:0",
		"B": "127.0.0.1:0",
	})
	a, err := net.Endpoint("A")
	if err != nil {
		b.Fatal(err)
	}
	defer a.Close() //nolint:errcheck
	sink, err := net.Endpoint("B")
	if err != nil {
		b.Fatal(err)
	}
	defer sink.Close() //nolint:errcheck
	msg := Message{To: "B", Type: "bench", Payload: make([]byte, 256)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := a.Send(ctx, msg); err != nil {
			b.Fatal(err)
		}
		if _, err := sink.Recv(ctx); err != nil {
			b.Fatal(err)
		}
	}
}
