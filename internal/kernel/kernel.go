// Package kernel implements the simulated operating system under the
// pointer-taintedness machine: system calls over an in-memory filesystem
// and the netsim socket fabric. Its defining job is taint initialization
// (paper Section 4.4): every byte delivered to user space through SYS_READ
// or SYS_RECV — file, stdin, network — is marked tainted on copy-out, as
// are command-line arguments and environment strings at process startup.
package kernel

import (
	"bytes"
	"fmt"
	"sort"

	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/netsim"
	"repro/internal/taint"
)

// System call numbers (the machine's ABI; $v0 selects, $a0-$a2 carry
// arguments, $v0 returns the result, -1 on error).
const (
	SysExit    = 1
	SysRead    = 3
	SysWrite   = 4
	SysOpen    = 5
	SysClose   = 6
	SysUnlink  = 10
	SysBrk     = 17
	SysSetUID  = 23
	SysGetUID  = 24
	SysSocket  = 30
	SysBind    = 31
	SysListen  = 32
	SysAccept  = 33
	SysRecv    = 34
	SysSend    = 35
	SysGetEUID = 49
	SysSetEUID = 50
	// SysAnnotate registers [a0, a0+a1) as a never-tainted region whose
	// name is the string at a2 — the programmer-annotation extension of
	// the paper's Section 5.3.
	SysAnnotate = 61
)

// Standard descriptors.
const (
	FDStdin  = 0
	FDStdout = 1
	FDStderr = 2
)

// maxTransfer caps the bytes one write copies in from the guest: far
// above any corpus program's write, far below what a hostile length
// could make the host allocate.
const maxTransfer = 1 << 20

// BlockedError is returned by CPU.Run when the guest would block on I/O
// (accept with no pending connection, recv/read on an empty open stream).
// The host driver services the wait — injecting input or connecting — and
// resumes the machine; the blocked syscall instruction re-executes.
type BlockedError struct {
	FD int32
	Op string
}

// Error implements the error interface.
func (e *BlockedError) Error() string {
	return fmt.Sprintf("guest blocked: %s on fd %d", e.Op, e.FD)
}

// fdesc is one open descriptor.
type fdesc struct {
	file     *file
	listener *netsim.Listener
	conn     *netsim.Conn
	std      int // 1=stdout 2=stderr
	stdin    bool
	// rcvd counts bytes delivered from conn so far: the stream offset the
	// next SYS_RECV's provenance origin starts at (files use file.pos,
	// stdin uses Kernel.stdinPos).
	rcvd uint64
}

// InputStats feeds the Table 3 "total number of input bytes" column and the
// Section 5.4 kernel-overhead estimate.
type InputStats struct {
	BytesRead    uint64 // bytes delivered by SYS_READ/SYS_RECV
	TaintedBytes uint64 // of those, bytes marked tainted
}

// Kernel is the machine's operating system instance.
type Kernel struct {
	FS  *FS
	Net *netsim.Network

	// TaintInputs controls taint initialization; true reproduces the paper,
	// false is the "taint tracking disabled" baseline for overhead runs.
	TaintInputs bool

	fds    map[int32]*fdesc
	nextFD int32

	brkStart uint32
	brk      uint32

	ruid, euid int32

	stdin    []byte
	stdinPos int

	stdout bytes.Buffer
	stderr bytes.Buffer

	stats InputStats
}

// New builds a kernel with an empty filesystem and network, root
// credentials (the paper's victims are root daemons), and taint
// initialization enabled.
func New() *Kernel {
	k := &Kernel{
		FS:          NewFS(),
		Net:         netsim.New(),
		TaintInputs: true,
		fds:         make(map[int32]*fdesc),
		nextFD:      3,
	}
	return k
}

// SetBreak initializes the program break (heap start), normally to the
// image's DataEnd rounded up to a page.
func (k *Kernel) SetBreak(addr uint32) {
	aligned := (addr + 0xFFF) &^ 0xFFF
	k.brkStart, k.brk = aligned, aligned
}

// Break returns the current program break.
func (k *Kernel) Break() uint32 { return k.brk }

// SetStdin preloads the guest's standard input (tainted on read).
func (k *Kernel) SetStdin(data []byte) {
	k.stdin = append([]byte(nil), data...)
	k.stdinPos = 0
}

// GarbleInput corrupts not-yet-consumed guest input — the fault
// injectors' model of a corrupted input channel. The victim byte comes
// from pending stdin when any remains, otherwise from the pending bytes
// of the lowest-numbered open connection with data queued; pick(n)
// chooses an index in [0, n) (a seeded generator makes the choice
// reproducible). With drop, the chosen byte and everything after it on
// that channel is discarded; otherwise the byte is XORed with mask. It
// returns a description of the corruption, or false when no pending
// input existed anywhere.
func (k *Kernel) GarbleInput(pick func(n int) int, mask byte, drop bool) (string, bool) {
	if rem := len(k.stdin) - k.stdinPos; rem > 0 {
		i := k.stdinPos + pick(rem)
		if drop {
			n := len(k.stdin) - i
			k.stdin = k.stdin[:i]
			return fmt.Sprintf("stdin: dropped %d pending bytes", n), true
		}
		k.stdin[i] ^= mask
		return fmt.Sprintf("stdin: xor byte %d mask %#02x", i, mask), true
	}
	fds := make([]int32, 0, len(k.fds))
	for fd, d := range k.fds {
		if d != nil && d.conn != nil && d.conn.In.Len() > 0 {
			fds = append(fds, fd)
		}
	}
	if len(fds) == 0 {
		return "", false
	}
	sort.Slice(fds, func(i, j int) bool { return fds[i] < fds[j] })
	fd := fds[pick(len(fds))]
	in := &k.fds[fd].conn.In
	i := pick(in.Len())
	if drop {
		n := in.Truncate(i)
		return fmt.Sprintf("fd %d: dropped %d pending bytes", fd, n), true
	}
	in.Garble(i, mask)
	return fmt.Sprintf("fd %d: xor byte %d mask %#02x", fd, i, mask), true
}

// Stdout returns everything the guest has written to fd 1.
func (k *Kernel) Stdout() string { return k.stdout.String() }

// Stderr returns everything the guest has written to fd 2.
func (k *Kernel) Stderr() string { return k.stderr.String() }

// UID returns the process's real and effective user IDs.
func (k *Kernel) UID() (ruid, euid int32) { return k.ruid, k.euid }

// SetUID sets the process credentials directly (test/driver use).
func (k *Kernel) SetUID(ruid, euid int32) { k.ruid, k.euid = ruid, euid }

// Stats returns the input-byte counters.
func (k *Kernel) Stats() InputStats { return k.stats }

var _ cpu.SyscallHandler = (*Kernel)(nil)

// Syscall dispatches one system call on behalf of c.
func (k *Kernel) Syscall(c *cpu.CPU) error {
	num := c.Reg(isa.RegV0)
	a0 := c.Reg(isa.RegA0)
	a1 := c.Reg(isa.RegA1)
	a2 := c.Reg(isa.RegA2)
	ret := func(v int32) {
		c.SetReg(isa.RegV0, uint32(v), taint.None)
	}
	switch num {
	case SysExit:
		c.Halt(int32(a0))
		return nil
	case SysRead:
		return k.sysRead(c, int32(a0), a1, a2)
	case SysWrite:
		return k.sysWrite(c, int32(a0), a1, a2)
	case SysOpen:
		ret(k.sysOpen(c, a0, a1))
		return nil
	case SysClose:
		ret(k.sysClose(int32(a0)))
		return nil
	case SysUnlink:
		if k.FS.Remove(k.readCString(c, a0)) {
			ret(0)
		} else {
			ret(-1)
		}
		return nil
	case SysBrk:
		if a0 != 0 && a0 >= k.brkStart {
			k.brk = a0
		}
		c.SetReg(isa.RegV0, k.brk, taint.None)
		return nil
	case SysGetUID:
		ret(k.ruid)
		return nil
	case SysGetEUID:
		ret(k.euid)
		return nil
	case SysSetUID:
		if k.euid == 0 {
			k.ruid, k.euid = int32(a0), int32(a0)
			ret(0)
		} else {
			ret(-1)
		}
		return nil
	case SysSetEUID:
		if k.euid == 0 || k.ruid == 0 || int32(a0) == k.ruid {
			k.euid = int32(a0)
			ret(0)
		} else {
			ret(-1)
		}
		return nil
	case SysSocket:
		fd := k.alloc(&fdesc{})
		ret(fd)
		return nil
	case SysBind:
		ret(k.sysBind(int32(a0), uint16(a1)))
		return nil
	case SysListen:
		// Listening state is established at bind time in this kernel.
		if d := k.fds[int32(a0)]; d == nil || d.listener == nil {
			ret(-1)
		} else {
			ret(0)
		}
		return nil
	case SysAccept:
		return k.sysAccept(c, int32(a0))
	case SysRecv:
		return k.sysRead(c, int32(a0), a1, a2)
	case SysSend:
		return k.sysWrite(c, int32(a0), a1, a2)
	case SysAnnotate:
		name := k.readCString(c, a2)
		c.AddTaintWatch(a0, a1, name)
		ret(0)
		return nil
	}
	return &cpu.Fault{PC: c.PC(), Reason: fmt.Sprintf("unknown syscall %d", num)}
}

func (k *Kernel) alloc(d *fdesc) int32 {
	fd := k.nextFD
	k.nextFD++
	k.fds[fd] = d
	return fd
}

func (k *Kernel) lookup(fd int32) *fdesc {
	switch fd {
	case FDStdin:
		return &fdesc{stdin: true}
	case FDStdout:
		return &fdesc{std: 1}
	case FDStderr:
		return &fdesc{std: 2}
	}
	return k.fds[fd]
}

// copyOut writes host bytes into guest memory via the CPU's bus (so the
// data and its taint bits travel through the cache hierarchy), marking
// every byte tainted when the kernel's taint initialization is on. This is
// the hardware RT-register mechanism of Section 4.4.
func (k *Kernel) copyOut(c *cpu.CPU, addr uint32, data []byte, tainted bool) error {
	t := tainted && k.TaintInputs
	if t {
		if err := c.CheckHostTaintWrite(addr, len(data)); err != nil {
			return err
		}
	}
	bus := c.Bus()
	for i, b := range data {
		bus.StoreByte(addr+uint32(i), b, t)
	}
	c.HostWrote(addr, len(data))
	if t {
		k.stats.TaintedBytes += uint64(len(data))
	}
	return nil
}

// provInput registers a provenance origin for one input delivery: this
// is the kernel half of the paper's taint-source mechanism, pairing the
// taint bits copyOut just set with an origin naming the exact stream
// bytes. No-op when taint initialization or provenance is off.
func (k *Kernel) provInput(c *cpu.CPU, source string, fd int32, off uint64, addr uint32, n int) {
	if !k.TaintInputs {
		return
	}
	c.ProvInput(source, fd, off, addr, n)
}

// copyIn reads guest memory (values only; the kernel trusts nothing about
// taint on the outbound path).
func (k *Kernel) copyIn(c *cpu.CPU, addr uint32, n int) []byte {
	bus := c.Bus()
	out := make([]byte, n)
	for i := range out {
		out[i], _ = bus.LoadByte(addr + uint32(i))
	}
	return out
}

// readCString reads a NUL-terminated guest string (bounded).
func (k *Kernel) readCString(c *cpu.CPU, addr uint32) string {
	const maxPath = 4096
	bus := c.Bus()
	var buf []byte
	for i := 0; i < maxPath; i++ {
		b, _ := bus.LoadByte(addr + uint32(i))
		if b == 0 {
			break
		}
		buf = append(buf, b)
	}
	return string(buf)
}

// readable returns how many bytes a read on d can deliver right now.
func (k *Kernel) readable(d *fdesc) int {
	switch {
	case d.stdin:
		return len(k.stdin) - k.stdinPos
	case d.file != nil:
		return d.file.remaining()
	case d.conn != nil:
		return d.conn.In.Len()
	}
	return 0
}

func (k *Kernel) sysRead(c *cpu.CPU, fd int32, buf, n uint32) error {
	d := k.lookup(fd)
	if d == nil {
		c.SetReg(isa.RegV0, uint32(0xFFFFFFFF), taint.None)
		return nil
	}
	// The guest picks n; the host buffer is sized by what exists.
	tmp := make([]byte, min(int(n), k.readable(d)))
	switch {
	case d.stdin:
		if k.stdinPos >= len(k.stdin) {
			c.SetReg(isa.RegV0, 0, taint.None) // EOF
			return nil
		}
		off := uint64(k.stdinPos)
		cnt := copy(tmp, k.stdin[k.stdinPos:])
		k.stdinPos += cnt
		if err := k.copyOut(c, buf, tmp[:cnt], true); err != nil {
			return err
		}
		k.provInput(c, "read", fd, off, buf, cnt)
		k.stats.BytesRead += uint64(cnt)
		c.SetReg(isa.RegV0, uint32(cnt), taint.None)
		return nil
	case d.file != nil:
		if !d.file.rd {
			c.SetReg(isa.RegV0, uint32(0xFFFFFFFF), taint.None)
			return nil
		}
		off := uint64(d.file.pos)
		cnt := d.file.read(tmp)
		if err := k.copyOut(c, buf, tmp[:cnt], true); err != nil {
			return err
		}
		k.provInput(c, "read", fd, off, buf, cnt)
		k.stats.BytesRead += uint64(cnt)
		c.SetReg(isa.RegV0, uint32(cnt), taint.None)
		return nil
	case d.conn != nil:
		cnt, eof, ok := d.conn.In.Read(tmp)
		if !ok {
			return &BlockedError{FD: fd, Op: "recv"}
		}
		if eof {
			c.SetReg(isa.RegV0, 0, taint.None)
			return nil
		}
		off := d.rcvd
		d.rcvd += uint64(cnt)
		if err := k.copyOut(c, buf, tmp[:cnt], true); err != nil {
			return err
		}
		k.provInput(c, "recv", fd, off, buf, cnt)
		k.stats.BytesRead += uint64(cnt)
		c.SetReg(isa.RegV0, uint32(cnt), taint.None)
		return nil
	}
	c.SetReg(isa.RegV0, uint32(0xFFFFFFFF), taint.None)
	return nil
}

func (k *Kernel) sysWrite(c *cpu.CPU, fd int32, buf, n uint32) error {
	d := k.lookup(fd)
	if d == nil {
		c.SetReg(isa.RegV0, uint32(0xFFFFFFFF), taint.None)
		return nil
	}
	// One call copies at most maxTransfer bytes and reports the short
	// count, as POSIX allows, so a guest-chosen length cannot make the
	// host allocate gigabytes.
	n = min(n, maxTransfer)
	data := k.copyIn(c, buf, int(n))
	switch {
	case d.std == 1:
		k.stdout.Write(data)
	case d.std == 2:
		k.stderr.Write(data)
	case d.file != nil && d.file.wr:
		d.file.write(data)
	case d.conn != nil:
		d.conn.Out.Write(data)
	default:
		c.SetReg(isa.RegV0, uint32(0xFFFFFFFF), taint.None)
		return nil
	}
	c.SetReg(isa.RegV0, n, taint.None)
	return nil
}

func (k *Kernel) sysOpen(c *cpu.CPU, pathPtr, flags uint32) int32 {
	path := k.readCString(c, pathPtr)
	exists := k.FS.Exists(path)
	if !exists {
		if flags&OCreat == 0 {
			return -1
		}
		k.FS.WriteFile(path, nil)
	} else if flags&OTrunc != 0 {
		k.FS.WriteFile(path, nil)
	}
	mode := flags & 3
	f := &file{
		fs:      k.FS,
		path:    path,
		rd:      mode == ORdOnly || mode == ORdWr,
		wr:      mode == OWrOnly || mode == ORdWr,
		appendW: flags&OAppend != 0,
	}
	return k.alloc(&fdesc{file: f})
}

func (k *Kernel) sysClose(fd int32) int32 {
	d, ok := k.fds[fd]
	if !ok {
		return -1
	}
	if d.listener != nil {
		k.Net.Unbind(d.listener.Port)
	}
	if d.conn != nil {
		k.Net.Hangup(d.conn)
	}
	delete(k.fds, fd)
	return 0
}

func (k *Kernel) sysBind(fd int32, port uint16) int32 {
	d := k.fds[fd]
	if d == nil || d.listener != nil || d.conn != nil {
		return -1
	}
	l, err := k.Net.Listen(port)
	if err != nil {
		return -1
	}
	d.listener = l
	return 0
}

func (k *Kernel) sysAccept(c *cpu.CPU, fd int32) error {
	d := k.fds[fd]
	if d == nil || d.listener == nil {
		c.SetReg(isa.RegV0, uint32(0xFFFFFFFF), taint.None)
		return nil
	}
	conn := d.listener.Accept()
	if conn == nil {
		return &BlockedError{FD: fd, Op: "accept"}
	}
	nfd := k.alloc(&fdesc{conn: conn})
	c.SetReg(isa.RegV0, uint32(nfd), taint.None)
	return nil
}
