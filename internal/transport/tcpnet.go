package transport

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"syscall"

	"confaudit/internal/telemetry"
)

// maxFrame bounds a single wire frame (16 MiB), protecting nodes from
// hostile length prefixes.
const maxFrame = 16 << 20

// TCPNetwork implements Network over real TCP connections. Node IDs are
// resolved through a static address book, mirroring the paper's
// assumption of a known DLA cluster roster. Frames are 4-byte big-endian
// length prefixes followed by the binary envelope encoding (codec.go).
type TCPNetwork struct {
	mu    sync.RWMutex
	addrs map[string]string // node ID -> host:port
}

// NewTCPNetwork creates a network with the given address book. The map
// is copied.
func NewTCPNetwork(addrs map[string]string) *TCPNetwork {
	book := make(map[string]string, len(addrs))
	for id, a := range addrs {
		book[id] = a
	}
	return &TCPNetwork{addrs: book}
}

var _ Network = (*TCPNetwork)(nil)

// Register adds or updates a node's address.
func (n *TCPNetwork) Register(id, addr string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.addrs[id] = addr
}

func (n *TCPNetwork) lookup(id string) (string, error) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	addr, ok := n.addrs[id]
	if !ok {
		return "", fmt.Errorf("%w: %q", ErrUnknownNode, id)
	}
	return addr, nil
}

// Endpoint starts listening on the node's registered address and returns
// an attached endpoint. The listener and all connection goroutines stop
// when the endpoint is closed.
func (n *TCPNetwork) Endpoint(id string) (Endpoint, error) {
	addr, err := n.lookup(id)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listening on %s: %w", addr, err)
	}
	ep := &tcpEndpoint{
		id:    id,
		net:   n,
		ln:    ln,
		inbox: make(chan Message, 1024),
		done:  make(chan struct{}),
		conns: make(map[string]*sendConn),
	}
	// Record the actual address (supports ":0" ephemeral ports).
	n.Register(id, ln.Addr().String())
	ep.wg.Add(1)
	go ep.acceptLoop()
	return ep, nil
}

type sendConn struct {
	mu   sync.Mutex
	conn net.Conn
	bw   *bufio.Writer
	// addr is the address this connection was dialed to; when the
	// address book later maps the peer elsewhere (a client process
	// restarted on a new ephemeral port), the cached connection is
	// stale and must be redialed.
	addr string
}

type tcpEndpoint struct {
	id    string
	net   *TCPNetwork
	ln    net.Listener
	inbox chan Message

	closeOnce sync.Once
	done      chan struct{}
	wg        sync.WaitGroup

	connMu sync.Mutex
	conns  map[string]*sendConn
}

var _ Endpoint = (*tcpEndpoint)(nil)

func (e *tcpEndpoint) ID() string { return e.id }

// Addr returns the endpoint's bound listen address.
func (e *tcpEndpoint) Addr() string { return e.ln.Addr().String() }

func (e *tcpEndpoint) acceptLoop() {
	defer e.wg.Done()
	for {
		conn, err := e.ln.Accept()
		if err != nil {
			return // listener closed
		}
		e.wg.Add(1)
		go e.readLoop(conn)
	}
}

func (e *tcpEndpoint) readLoop(conn net.Conn) {
	defer e.wg.Done()
	defer conn.Close() //nolint:errcheck // best-effort close on read loop exit
	// Stop blocking reads when the endpoint closes.
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		select {
		case <-e.done:
			conn.SetReadDeadline(immediateDeadline()) //nolint:errcheck
		case <-stop:
		}
	}()
	br := bufio.NewReader(conn)
	for {
		msg, err := readFrame(br)
		if err != nil {
			return
		}
		// Learn the way back to senders that advertise an address (a
		// production deployment would authenticate this against the
		// sender's signature; the address book is trust-on-first-use).
		if msg.ReplyAddr != "" && msg.From != "" {
			e.net.Register(msg.From, msg.ReplyAddr)
		}
		select {
		case e.inbox <- msg:
		case <-e.done:
			return
		}
	}
}

func (e *tcpEndpoint) Send(ctx context.Context, msg Message) error {
	if e.isClosed() {
		return ErrClosed
	}
	msg.From = e.id
	msg.ReplyAddr = e.ln.Addr().String()
	sc, cached, err := e.dial(ctx, msg.To)
	if err != nil {
		return err
	}
	if err := e.writeTo(ctx, sc, &msg); err != nil {
		// Connection is broken; drop it so later sends redial.
		e.dropConn(msg.To, sc)
		if !cached || ctx.Err() != nil {
			return fmt.Errorf("transport: sending to %q: %w", msg.To, err)
		}
		// The cached connection was stale (peer restarted since it was
		// dialed); retry once over a fresh dial before surfacing the
		// error.
		sc, _, err = e.dial(ctx, msg.To)
		if err != nil {
			return err
		}
		if err := e.writeTo(ctx, sc, &msg); err != nil {
			e.dropConn(msg.To, sc)
			return fmt.Errorf("transport: sending to %q: %w", msg.To, err)
		}
	}
	return nil
}

// writeTo frames msg onto the connection under its write lock, bounded
// by the context deadline.
func (e *tcpEndpoint) writeTo(ctx context.Context, sc *sendConn, msg *Message) error {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if deadline, ok := ctx.Deadline(); ok {
		sc.conn.SetWriteDeadline(deadline) //nolint:errcheck
	} else {
		sc.conn.SetWriteDeadline(noDeadline()) //nolint:errcheck
	}
	return writeFrame(sc.bw, msg)
}

// dial returns a connection to the peer and whether it was served from
// the connection cache (a cached connection may be stale).
func (e *tcpEndpoint) dial(ctx context.Context, to string) (*sendConn, bool, error) {
	addr, err := e.net.lookup(to)
	if err != nil {
		return nil, false, err
	}
	e.connMu.Lock()
	if sc, ok := e.conns[to]; ok {
		if sc.addr == addr {
			e.connMu.Unlock()
			return sc, true, nil
		}
		// The peer moved; retire the stale connection.
		delete(e.conns, to)
		sc.conn.Close() //nolint:errcheck
	}
	e.connMu.Unlock()

	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if errors.Is(err, syscall.ECONNREFUSED) {
		// Nothing listens at addr: TCP's closed destination.
		return nil, false, fmt.Errorf("transport: dialing %q at %s: %w: %w", to, addr, ErrClosed, err)
	}
	if err != nil {
		return nil, false, fmt.Errorf("transport: dialing %q at %s: %w", to, addr, err)
	}
	sc := &sendConn{conn: conn, bw: bufio.NewWriter(conn), addr: addr}

	e.connMu.Lock()
	if prev, ok := e.conns[to]; ok && prev.addr == addr {
		e.connMu.Unlock()
		conn.Close() //nolint:errcheck // lost the race; reuse existing
		return prev, true, nil
	}
	e.conns[to] = sc
	e.connMu.Unlock()

	// Outbound connections are write-only (replies arrive on separate
	// inbound connections), so any read completing means the peer closed
	// or reset: reap the connection so the next send redials.
	e.wg.Add(1)
	go func() {
		defer e.wg.Done()
		var buf [1]byte
		conn.Read(buf[:]) //nolint:errcheck // only the unblocking matters
		e.dropConn(to, sc)
	}()
	return sc, false, nil
}

func (e *tcpEndpoint) dropConn(to string, sc *sendConn) {
	e.connMu.Lock()
	defer e.connMu.Unlock()
	if cur, ok := e.conns[to]; ok && cur == sc {
		delete(e.conns, to)
		sc.conn.Close() //nolint:errcheck
	}
}

func (e *tcpEndpoint) Recv(ctx context.Context) (Message, error) {
	select {
	case msg := <-e.inbox:
		return msg, nil
	case <-e.done:
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

func (e *tcpEndpoint) Close() error {
	e.closeOnce.Do(func() {
		close(e.done)
		e.ln.Close() //nolint:errcheck
		e.connMu.Lock()
		for to, sc := range e.conns {
			sc.conn.Close() //nolint:errcheck
			delete(e.conns, to)
		}
		e.connMu.Unlock()
	})
	e.wg.Wait()
	return nil
}

func (e *tcpEndpoint) isClosed() bool {
	select {
	case <-e.done:
		return true
	default:
		return false
	}
}

// writeFrame frames msg with the binary envelope codec, reusing pooled
// encode buffers.
func writeFrame(bw *bufio.Writer, msg *Message) error {
	bufp := encBufPool.Get().(*[]byte)
	body := appendBinaryMessage((*bufp)[:0], msg)
	*bufp = body
	defer encBufPool.Put(bufp)
	if len(body) > maxFrame {
		return fmt.Errorf("frame of %d bytes exceeds limit %d", len(body), maxFrame)
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(body)))
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := bw.Write(body); err != nil {
		return err
	}
	telemetry.M.Counter(telemetry.CtrCodecBytesSent).Add(int64(len(body)))
	return bw.Flush()
}

// readFrame decodes one frame. Anything but a binary envelope at
// frameVersion is an error, and the caller drops the connection.
func readFrame(br *bufio.Reader) (Message, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return Message{}, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > maxFrame {
		return Message{}, fmt.Errorf("transport: frame of %d bytes exceeds limit %d", n, maxFrame)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(br, body); err != nil {
		return Message{}, err
	}
	return decodeBinaryMessage(body)
}
