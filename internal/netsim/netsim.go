// Package netsim provides the in-memory socket substrate the simulated
// kernel exposes through SYS_SOCKET/BIND/LISTEN/ACCEPT/RECV/SEND. The
// guest program is single-threaded and cooperative: when it would block
// (accept with no pending connection, recv on an empty open stream) the
// kernel returns control to the host-side driver, which plays the attacker
// or client, injects bytes, and resumes the machine. This makes attack
// sessions — like the paper's Table 2 FTP dialogue — fully deterministic.
package netsim

import (
	"errors"
	"fmt"
)

// Stream is one unidirectional byte stream.
type Stream struct {
	buf    []byte
	closed bool
}

// Write appends p to the stream.
func (s *Stream) Write(p []byte) {
	s.buf = append(s.buf, p...)
}

// Close marks the stream finished; readers drain the buffer then see EOF.
func (s *Stream) Close() { s.closed = true }

// Read copies up to len(p) buffered bytes. ok=false means no data was
// available: eof distinguishes a closed stream (read 0 = EOF) from one
// that would block.
func (s *Stream) Read(p []byte) (n int, eof bool, ok bool) {
	if len(s.buf) == 0 {
		if s.closed {
			return 0, true, true
		}
		return 0, false, false
	}
	n = copy(p, s.buf)
	s.buf = s.buf[n:]
	return n, false, true
}

// Len returns the number of buffered bytes.
func (s *Stream) Len() int { return len(s.buf) }

// Garble XORs mask into pending (not yet read) buffered byte i — the
// fault injector's model of wire corruption. It reports whether such a
// byte existed.
func (s *Stream) Garble(i int, mask byte) bool {
	if i < 0 || i >= len(s.buf) {
		return false
	}
	s.buf[i] ^= mask
	return true
}

// Truncate discards all but the first n pending bytes (dropped input),
// returning how many were dropped.
func (s *Stream) Truncate(n int) int {
	if n < 0 {
		n = 0
	}
	if n >= len(s.buf) {
		return 0
	}
	dropped := len(s.buf) - n
	s.buf = s.buf[:n]
	return dropped
}

// Closed reports whether the stream has been closed by the writer.
func (s *Stream) Closed() bool { return s.closed }

// Conn is one established connection, seen from the server (guest) side:
// In carries client->server bytes, Out carries server->client bytes.
type Conn struct {
	In  Stream
	Out Stream
}

// Endpoint is the host-side (attacker/client) handle on a connection.
type Endpoint struct {
	conn *Conn
}

// Send injects bytes toward the guest server.
func (e *Endpoint) Send(p []byte) { e.conn.In.Write(p) }

// SendString injects a string toward the guest server.
func (e *Endpoint) SendString(s string) { e.conn.In.Write([]byte(s)) }

// Recv drains and returns everything the guest has sent so far.
func (e *Endpoint) Recv() []byte {
	out := make([]byte, e.conn.Out.Len())
	n, _, _ := e.conn.Out.Read(out)
	return out[:n]
}

// RecvString is Recv as a string.
func (e *Endpoint) RecvString() string { return string(e.Recv()) }

// Close half-closes the connection from the client side; the guest's next
// drained recv returns 0 (EOF).
func (e *Endpoint) Close() { e.conn.In.Close() }

// Listener queues pending connections for a bound port.
type Listener struct {
	Port    uint16
	pending []*Conn
}

// Accept pops one pending connection, or nil when none is waiting.
func (l *Listener) Accept() *Conn {
	if len(l.pending) == 0 {
		return nil
	}
	c := l.pending[0]
	l.pending = l.pending[1:]
	return c
}

// Pending returns the number of queued connections.
func (l *Listener) Pending() int { return len(l.pending) }

// Network is the loopback fabric connecting host drivers to guest sockets.
type Network struct {
	listeners map[uint16]*Listener
	// peers holds the host ends of the connections opened with Connect
	// that the guest has not closed, in Connect order.
	peers []*Endpoint
}

// New returns an empty network.
func New() *Network {
	return &Network{listeners: make(map[uint16]*Listener)}
}

// ErrPortInUse reports a bind conflict.
var ErrPortInUse = errors.New("port already bound")

// Listen binds a guest listener to port.
func (n *Network) Listen(port uint16) (*Listener, error) {
	if _, taken := n.listeners[port]; taken {
		return nil, fmt.Errorf("bind port %d: %w", port, ErrPortInUse)
	}
	l := &Listener{Port: port}
	n.listeners[port] = l
	return l, nil
}

// Unbind releases a port (guest closed its listening socket). Connections
// still pending on it are gone with it.
func (n *Network) Unbind(port uint16) {
	if l := n.listeners[port]; l != nil {
		for _, c := range l.pending {
			n.Hangup(c)
		}
	}
	delete(n.listeners, port)
}

// Hangup drops the host end of c from Peers: the guest closed its side.
// Peers slices returned earlier keep their contents.
func (n *Network) Hangup(c *Conn) {
	for i, e := range n.peers {
		if e.conn == c {
			n.peers = append(n.peers[:i:i], n.peers[i+1:]...)
			return
		}
	}
}

// Peers returns the host ends of the connections opened with Connect that
// the guest has not closed, pending or accepted, in Connect order. The
// slice is the network's own; callers must not modify it.
func (n *Network) Peers() []*Endpoint { return n.peers }

// Connect establishes a host-side connection to a listening guest port.
func (n *Network) Connect(port uint16) (*Endpoint, error) {
	l, ok := n.listeners[port]
	if !ok {
		return nil, fmt.Errorf("connect port %d: connection refused", port)
	}
	c := &Conn{}
	l.pending = append(l.pending, c)
	e := &Endpoint{conn: c}
	n.peers = append(n.peers, e)
	return e, nil
}
