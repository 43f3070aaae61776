package transport

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"net"
	"testing"
	"time"
)

func contextWithTimeout(d time.Duration) (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), d)
}

// TestTCPRejectsOversizedFrame sends a hostile length prefix and
// verifies the node drops the connection rather than allocating 4 GiB.
func TestTCPRejectsOversizedFrame(t *testing.T) {
	tn := NewTCPNetwork(map[string]string{"A": "127.0.0.1:0"})
	a, err := tn.Endpoint("A")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close() //nolint:errcheck
	addr := a.(*tcpEndpoint).Addr()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close() //nolint:errcheck
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], 0xFFFFFFFF)
	if _, err := conn.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	// The server must close the connection; a subsequent read returns
	// EOF rather than blocking.
	conn.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("connection stayed open after hostile frame")
	}
}

// TestTCPDropsGarbageFrame sends well-sized frames that are not binary
// envelopes — arbitrary bytes, a JSON-encoded Message (the retired JSON
// frame path), and a binary envelope under an unknown version byte. For
// each, the read loop must drop the connection without delivering
// anything, and keep serving others.
func TestTCPDropsGarbageFrame(t *testing.T) {
	tn := NewTCPNetwork(map[string]string{"A": "127.0.0.1:0", "B": "127.0.0.1:0"})
	a, err := tn.Endpoint("A")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close() //nolint:errcheck
	b, err := tn.Endpoint("B")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close() //nolint:errcheck

	unknownVersion := appendBinaryMessage(nil, &Message{From: "X", To: "A", Type: "evil"})
	unknownVersion[1] = frameVersion + 1
	garbage := map[string][]byte{
		"not a frame":     []byte("this is not json"),
		"json frame":      []byte(`{"from":"X","to":"A","type":"evil","session":"s"}`),
		"unknown version": unknownVersion,
	}
	for name, body := range garbage {
		conn, err := net.Dial("tcp", a.(*tcpEndpoint).Addr())
		if err != nil {
			t.Fatal(err)
		}
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], uint32(len(body)))
		if _, err := conn.Write(append(hdr[:], body...)); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
		if _, err := conn.Read(make([]byte, 1)); err == nil || isTimeout(err) {
			t.Errorf("%s: connection not dropped: %v", name, err)
		}
		conn.Close() //nolint:errcheck
	}

	// A legitimate peer still gets through, and is the first thing
	// delivered: none of the garbage frames reached the inbox.
	ctx := testCtx(t)
	if err := b.Send(ctx, Message{To: "A", Type: "ok"}); err != nil {
		t.Fatal(err)
	}
	got, err := a.Recv(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != "ok" {
		t.Fatalf("got %+v", got)
	}
}

func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// TestFrameRoundTripUnit exercises the codec directly.
func TestFrameRoundTripUnit(t *testing.T) {
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	msg := Message{From: "A", To: "B", Type: "t", Session: "s", Payload: []byte(`{"x":1}`)}
	if err := writeFrame(bw, &msg); err != nil {
		t.Fatal(err)
	}
	got, err := readFrame(bufio.NewReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if got.From != "A" || got.To != "B" || string(got.Payload) != `{"x":1}` {
		t.Fatalf("round trip %+v", got)
	}
}

func TestFrameTooLargeOnWrite(t *testing.T) {
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	msg := Message{To: "B", Payload: make([]byte, maxFrame+1)}
	if err := writeFrame(bw, &msg); err == nil {
		t.Fatal("oversized frame written")
	}
}

// TestTCPSendRecoversFromStaleCachedConn breaks the cached outbound
// connection under the sender's feet and verifies the next Send
// transparently redials and delivers instead of surfacing the write
// error.
func TestTCPSendRecoversFromStaleCachedConn(t *testing.T) {
	ctx := testCtx(t)
	tn := NewTCPNetwork(map[string]string{"A": "127.0.0.1:0", "B": "127.0.0.1:0"})
	a, err := tn.Endpoint("A")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close() //nolint:errcheck
	b, err := tn.Endpoint("B")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close() //nolint:errcheck

	if err := a.Send(ctx, Message{To: "B", Type: "first"}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Recv(ctx); err != nil {
		t.Fatal(err)
	}

	// Sever the cached connection so the next write fails.
	ae := a.(*tcpEndpoint)
	ae.connMu.Lock()
	sc, ok := ae.conns["B"]
	ae.connMu.Unlock()
	if !ok {
		t.Fatal("no cached connection after first send")
	}
	sc.conn.Close() //nolint:errcheck

	if err := a.Send(ctx, Message{To: "B", Type: "second"}); err != nil {
		t.Fatalf("send over severed cached conn: %v", err)
	}
	got, err := b.Recv(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != "second" {
		t.Fatalf("got %+v", got)
	}
}

// TestTCPReconnectAfterPeerRestart restarts a peer endpoint on the same
// address and verifies senders recover (the stale-connection redial
// path).
func TestTCPReconnectAfterPeerRestart(t *testing.T) {
	ctx := testCtx(t)
	tn := NewTCPNetwork(map[string]string{"A": "127.0.0.1:0", "B": "127.0.0.1:0"})
	a, err := tn.Endpoint("A")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close() //nolint:errcheck
	b1, err := tn.Endpoint("B")
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Send(ctx, Message{To: "B", Type: "first"}); err != nil {
		t.Fatal(err)
	}
	if _, err := b1.Recv(ctx); err != nil {
		t.Fatal(err)
	}
	// B restarts (possibly on the same port, since the old one is free).
	if err := b1.Close(); err != nil {
		t.Fatal(err)
	}
	b2, err := tn.Endpoint("B")
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Close() //nolint:errcheck

	// A's EOF watchdog reaps the dead cached connection; give it a
	// moment, then sends must transparently redial.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err := a.Send(ctx, Message{To: "B", Type: "second"}); err == nil {
			recvCtx, cancel := contextWithTimeout(200 * time.Millisecond)
			got, err := b2.Recv(recvCtx)
			cancel()
			if err == nil {
				if got.Type != "second" {
					t.Fatalf("got %+v", got)
				}
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("send never recovered after peer restart")
		}
		time.Sleep(50 * time.Millisecond)
	}
}
