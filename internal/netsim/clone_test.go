package netsim

import "testing"

// TestStreamWouldBlockVsEOF pins the three reader-visible states: open and
// empty (would-block), closed with buffered data (drain first), closed and
// empty (EOF).
func TestStreamWouldBlockVsEOF(t *testing.T) {
	var s Stream
	buf := make([]byte, 8)

	if n, eof, ok := s.Read(buf); n != 0 || eof || ok {
		t.Fatalf("open empty stream: n=%d eof=%v ok=%v, want would-block", n, eof, ok)
	}
	s.Write([]byte("xy"))
	s.Close()
	if n, eof, ok := s.Read(buf); n != 2 || eof || !ok {
		t.Fatalf("closed stream with data: n=%d eof=%v ok=%v, want drain", n, eof, ok)
	}
	if n, eof, ok := s.Read(buf); n != 0 || !eof || !ok {
		t.Fatalf("drained closed stream: n=%d eof=%v ok=%v, want EOF", n, eof, ok)
	}
	// EOF is sticky.
	if n, eof, ok := s.Read(buf); n != 0 || !eof || !ok {
		t.Fatalf("second EOF read: n=%d eof=%v ok=%v", n, eof, ok)
	}
}

// TestStreamWriteAfterClose: a write after close is still delivered before
// EOF (half-close delivers in-flight bytes).
func TestStreamWriteAfterClose(t *testing.T) {
	var s Stream
	s.Close()
	s.Write([]byte("late"))
	buf := make([]byte, 8)
	if n, _, ok := s.Read(buf); n != 4 || !ok || string(buf[:4]) != "late" {
		t.Fatalf("post-close write lost: n=%d ok=%v", n, ok)
	}
	if _, eof, _ := s.Read(buf); !eof {
		t.Fatalf("no EOF after draining post-close write")
	}
}

// TestConnClone: buffered bytes and close flags copy; subsequent traffic
// does not cross between original and clone.
func TestConnClone(t *testing.T) {
	c := &Conn{}
	c.In.Write([]byte("req"))
	c.Out.Write([]byte("resp"))
	c.In.Close()

	cl := c.Clone()
	buf := make([]byte, 16)
	if n, _, _ := cl.In.Read(buf); string(buf[:n]) != "req" {
		t.Fatalf("clone In lost buffered bytes: %q", buf[:n])
	}
	if _, eof, _ := cl.In.Read(buf); !eof {
		t.Fatalf("clone In lost the close flag")
	}
	cl.Out.Write([]byte("-more"))
	if c.Out.Len() != 4 {
		t.Fatalf("clone write leaked into original: len=%d", c.Out.Len())
	}
	c.Out.Write([]byte("!!"))
	if cl.Out.Len() != 9 {
		t.Fatalf("original write leaked into clone: len=%d", cl.Out.Len())
	}
}

// TestNetworkClone: listeners, pending connections, and their buffered
// bytes deep-copy with identity maps; traffic after the clone is private.
func TestNetworkClone(t *testing.T) {
	n := New()
	l, err := n.Listen(21)
	if err != nil {
		t.Fatal(err)
	}
	ep, err := n.Connect(21)
	if err != nil {
		t.Fatal(err)
	}
	ep.SendString("USER u")

	nn, lmap, cmap := n.Clone()
	nl := lmap[l]
	if nl == nil || nl.Port != 21 || nl.Pending() != 1 {
		t.Fatalf("listener did not clone: %+v", nl)
	}
	if len(cmap) != 1 {
		t.Fatalf("pending conn missing from identity map: %d entries", len(cmap))
	}

	// The cloned pending conn carries the buffered bytes...
	cc := nl.Accept()
	buf := make([]byte, 16)
	if got, _, _ := cc.In.Read(buf); string(buf[:got]) != "USER u" {
		t.Fatalf("cloned pending conn lost bytes: %q", buf[:got])
	}
	// ...and the original endpoint still addresses the original network.
	ep.SendString("+orig")
	if cc.In.Len() != 0 {
		t.Fatalf("original endpoint traffic reached the clone")
	}
	// A connect on the clone does not disturb the original listener.
	if _, err := nn.Connect(21); err != nil {
		t.Fatal(err)
	}
	if l.Pending() != 1 {
		t.Fatalf("clone connect leaked into original listener: %d pending", l.Pending())
	}
}

// TestPeersFollowTheGuest: Peers lists the connections the guest has not
// closed in Connect order, hanging up or unbinding drops them without
// disturbing a slice handed out earlier, and a clone carries each peer,
// accepted or pending, onto its own copy of the connection.
func TestPeersFollowTheGuest(t *testing.T) {
	n := New()
	l, err := n.Listen(21)
	if err != nil {
		t.Fatal(err)
	}
	var eps []*Endpoint
	for i := 0; i < 3; i++ {
		ep, err := n.Connect(21)
		if err != nil {
			t.Fatal(err)
		}
		eps = append(eps, ep)
	}
	accepted, closed := l.Accept(), l.Accept()
	before := n.Peers()
	n.Hangup(closed)
	if p := n.Peers(); len(p) != 2 || p[0] != eps[0] || p[1] != eps[2] {
		t.Fatalf("peers after hangup: %v", p)
	}
	if len(before) != 3 || before[1] != eps[1] {
		t.Fatalf("hangup rewrote an earlier Peers slice: %v", before)
	}

	eps[0].SendString("to-accepted")
	nn, _, cmap := n.Clone()
	np := nn.Peers()
	if len(np) != 2 || np[0].conn != cmap[accepted] || np[0].conn == accepted || np[1].conn != nn.listeners[21].pending[0] {
		t.Fatalf("clone peers not remapped onto copies: %v", np)
	}
	buf := make([]byte, 16)
	if got, _, _ := np[0].conn.In.Read(buf); string(buf[:got]) != "to-accepted" {
		t.Fatalf("cloned peer lost buffered bytes: %q", buf[:got])
	}

	n.Unbind(21)
	if p := n.Peers(); len(p) != 1 || p[0] != eps[0] {
		t.Fatalf("unbind kept a pending peer: %v", p)
	}
}
