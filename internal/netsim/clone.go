package netsim

// clone returns a deep copy of the stream: the buffered bytes are copied,
// so writes on either side never show through to the other.
func (s *Stream) clone() Stream {
	n := Stream{closed: s.closed}
	if len(s.buf) > 0 {
		n.buf = append([]byte(nil), s.buf...)
	}
	return n
}

// Clone returns a deep copy of the connection (both directions' buffered
// bytes and close flags).
func (c *Conn) Clone() *Conn {
	return &Conn{In: c.In.clone(), Out: c.Out.clone()}
}

// Clone returns a deep copy of the network plus identity maps from the
// original listeners and connections to their copies, so a caller holding
// references into the old network (the kernel's fd table) can re-point
// them at the clone. The connection map covers every pending connection
// and every peer's connection, so the clone's Peers address the copies in
// the same order. A connection the guest accepted that no peer holds is
// not in the map; clone those separately with Conn.Clone.
func (n *Network) Clone() (*Network, map[*Listener]*Listener, map[*Conn]*Conn) {
	nn := New()
	lmap := make(map[*Listener]*Listener, len(n.listeners))
	cmap := make(map[*Conn]*Conn)
	for port, l := range n.listeners {
		nl := &Listener{Port: l.Port}
		if len(l.pending) > 0 {
			nl.pending = make([]*Conn, len(l.pending))
			for i, c := range l.pending {
				nc := c.Clone()
				nl.pending[i] = nc
				cmap[c] = nc
			}
		}
		nn.listeners[port] = nl
		lmap[l] = nl
	}
	for _, e := range n.peers {
		nc := cmap[e.conn]
		if nc == nil {
			// Accepted: the guest holds it in its fd table.
			nc = e.conn.Clone()
			cmap[e.conn] = nc
		}
		nn.peers = append(nn.peers, &Endpoint{conn: nc})
	}
	return nn, lmap, cmap
}
