package kernel

import "repro/internal/netsim"

// Clone returns a deep copy of the filesystem: file contents are copied
// byte-wise, because file writes mutate the stored slices in place.
func (fs *FS) Clone() *FS {
	n := NewFS()
	for path, data := range fs.files {
		n.files[path] = append([]byte(nil), data...)
	}
	return n
}

// Clone returns a deep copy of the kernel: the filesystem, the network
// (listeners, pending and accepted connections, their buffered bytes), the
// fd table (with every descriptor re-pointed at the cloned objects), break
// and credential state, the stdin cursor, and the stdout/stderr buffers.
// Clone only reads the receiver, so many goroutines may clone one
// snapshotted kernel concurrently. The clone's network carries the host
// ends of the connections the guest still holds (Net.Peers), re-pointed
// at the cloned connections, so a forked session can continue a dialogue
// its origin started; Endpoints obtained from the original network still
// address the original connections.
func (k *Kernel) Clone() *Kernel {
	n := &Kernel{
		FS:          k.FS.Clone(),
		TaintInputs: k.TaintInputs,
		fds:         make(map[int32]*fdesc, len(k.fds)),
		nextFD:      k.nextFD,
		brkStart:    k.brkStart,
		brk:         k.brk,
		ruid:        k.ruid,
		euid:        k.euid,
		stdinPos:    k.stdinPos,
		stats:       k.stats,
	}
	if k.stdin != nil {
		n.stdin = append([]byte(nil), k.stdin...)
	}
	n.stdout.Write(k.stdout.Bytes())
	n.stderr.Write(k.stderr.Bytes())

	var lmap map[*netsim.Listener]*netsim.Listener
	var cmap map[*netsim.Conn]*netsim.Conn
	n.Net, lmap, cmap = k.Net.Clone()
	for fd, d := range k.fds {
		nd := &fdesc{std: d.std, stdin: d.stdin, rcvd: d.rcvd}
		if d.file != nil {
			nd.file = &file{
				fs:      n.FS,
				path:    d.file.path,
				pos:     d.file.pos,
				rd:      d.file.rd,
				wr:      d.file.wr,
				appendW: d.file.appendW,
			}
		}
		if d.listener != nil {
			nd.listener = lmap[d.listener]
		}
		if d.conn != nil {
			nc := cmap[d.conn]
			if nc == nil {
				// Accepted before the clone and held by no peer.
				nc = d.conn.Clone()
				cmap[d.conn] = nc
			}
			nd.conn = nc
		}
		n.fds[fd] = nd
	}
	return n
}
