package kernel

import (
	"errors"
	"runtime"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/mem"
)

// machine bundles a guest for kernel tests.
type machine struct {
	k  *Kernel
	c  *cpu.CPU
	m  *mem.Memory
	im *asm.Image
}

func boot(t *testing.T, src string) *machine {
	t.Helper()
	im, err := asm.AssembleString(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	k := New()
	m := mem.New()
	c := cpu.New(cpu.Config{Bus: m, Handler: k, Image: im})
	c.LoadImage(m, im)
	k.SetBreak(im.DataEnd)
	return &machine{k: k, c: c, m: m, im: im}
}

func (mc *machine) run(t *testing.T) error {
	t.Helper()
	return mc.c.Run(1_000_000)
}

func TestFSBasics(t *testing.T) {
	fs := NewFS()
	if fs.Exists("/etc/passwd") {
		t.Error("empty FS has a file")
	}
	fs.WriteFile("/etc/passwd", []byte("root:x:0:0\n"))
	data, ok := fs.ReadFile("/etc/passwd")
	if !ok || string(data) != "root:x:0:0\n" {
		t.Errorf("ReadFile = %q %v", data, ok)
	}
	// Returned slice is a copy.
	data[0] = 'X'
	again, _ := fs.ReadFile("/etc/passwd")
	if again[0] != 'r' {
		t.Error("ReadFile aliases internal storage")
	}
	fs.WriteFile("/a", nil)
	if got := fs.Paths(); len(got) != 2 || got[0] != "/a" || got[1] != "/etc/passwd" {
		t.Errorf("Paths = %v", got)
	}
	if !fs.Remove("/a") || fs.Remove("/a") {
		t.Error("Remove semantics")
	}
}

func TestReadFileTaintsBuffer(t *testing.T) {
	mc := boot(t, `
	.data
	path:	.asciiz "/input.txt"
	buf:	.space 32
	.text
	main:
		la $a0, path
		li $a1, 0          # O_RDONLY
		li $v0, 5          # open
		syscall
		move $a0, $v0      # fd
		la $a1, buf
		li $a2, 32
		li $v0, 3          # read
		syscall
		move $s0, $v0      # bytes read
		li $v0, 1
		li $a0, 0
		syscall
	`)
	mc.k.FS.WriteFile("/input.txt", []byte("hello"))
	if err := mc.run(t); err != nil {
		t.Fatal(err)
	}
	if got := mc.c.Reg(isa.RegS0); got != 5 {
		t.Errorf("read returned %d, want 5", got)
	}
	bufAddr := mc.im.Symbols["buf"]
	data, taints := mc.m.ReadBytes(bufAddr, 5)
	if string(data) != "hello" {
		t.Errorf("buf = %q", data)
	}
	for i, tt := range taints {
		if !tt {
			t.Errorf("byte %d untainted; file input must be tainted", i)
		}
	}
	// Bytes beyond the read are not tainted.
	if _, tt := mc.m.LoadByte(bufAddr + 5); tt {
		t.Error("byte past EOF tainted")
	}
	st := mc.k.Stats()
	if st.BytesRead != 5 || st.TaintedBytes != 5 {
		t.Errorf("stats = %+v", st)
	}
}

func TestTaintInputsDisabled(t *testing.T) {
	mc := boot(t, `
	.data
	buf:	.space 8
	.text
	main:
		li $a0, 0          # stdin
		la $a1, buf
		li $a2, 8
		li $v0, 3
		syscall
		li $v0, 1
		li $a0, 0
		syscall
	`)
	mc.k.TaintInputs = false
	mc.k.SetStdin([]byte("evil"))
	if err := mc.run(t); err != nil {
		t.Fatal(err)
	}
	if got := mc.m.CountTainted(mc.im.Symbols["buf"], 4); got != 0 {
		t.Errorf("%d tainted bytes with TaintInputs=false", got)
	}
	if st := mc.k.Stats(); st.TaintedBytes != 0 {
		t.Errorf("TaintedBytes = %d", st.TaintedBytes)
	}
}

func TestStdinEOFAndStdout(t *testing.T) {
	mc := boot(t, `
	.data
	buf:	.space 16
	msg:	.asciiz "ok\n"
	.text
	main:
		li $a0, 0
		la $a1, buf
		li $a2, 16
		li $v0, 3
		syscall            # first read drains stdin
		move $s0, $v0
		li $a0, 0
		la $a1, buf
		li $a2, 16
		li $v0, 3
		syscall            # second read: EOF -> 0
		move $s1, $v0
		li $a0, 1
		la $a1, msg
		li $a2, 3
		li $v0, 4          # write stdout
		syscall
		li $a0, 2
		la $a1, msg
		li $a2, 3
		li $v0, 4          # write stderr
		syscall
		li $v0, 1
		li $a0, 0
		syscall
	`)
	mc.k.SetStdin([]byte("abc"))
	if err := mc.run(t); err != nil {
		t.Fatal(err)
	}
	if mc.c.Reg(isa.RegS0) != 3 || mc.c.Reg(isa.RegS1) != 0 {
		t.Errorf("reads = %d, %d", mc.c.Reg(isa.RegS0), mc.c.Reg(isa.RegS1))
	}
	if mc.k.Stdout() != "ok\n" {
		t.Errorf("stdout = %q", mc.k.Stdout())
	}
	if mc.k.Stderr() != "ok\n" {
		t.Errorf("stderr = %q", mc.k.Stderr())
	}
}

func TestOpenModes(t *testing.T) {
	mc := boot(t, `
	.data
	path:	.asciiz "/new.txt"
	data:	.asciiz "xyz"
	.text
	main:
		la $a0, path
		li $a1, 0x41       # O_WRONLY|O_CREAT
		li $v0, 5
		syscall
		move $s0, $v0
		move $a0, $s0
		la $a1, data
		li $a2, 3
		li $v0, 4          # write
		syscall
		move $a0, $s0
		li $v0, 6          # close
		syscall
		move $s1, $v0
		li $v0, 1
		li $a0, 0
		syscall
	`)
	if err := mc.run(t); err != nil {
		t.Fatal(err)
	}
	if int32(mc.c.Reg(isa.RegS0)) < 3 {
		t.Errorf("open fd = %d", int32(mc.c.Reg(isa.RegS0)))
	}
	if mc.c.Reg(isa.RegS1) != 0 {
		t.Errorf("close = %d", int32(mc.c.Reg(isa.RegS1)))
	}
	got, ok := mc.k.FS.ReadFile("/new.txt")
	if !ok || string(got) != "xyz" {
		t.Errorf("file = %q %v", got, ok)
	}
}

func TestOpenMissingWithoutCreatFails(t *testing.T) {
	mc := boot(t, `
	.data
	path:	.asciiz "/missing"
	.text
	main:
		la $a0, path
		li $a1, 0
		li $v0, 5
		syscall
		move $s0, $v0
		li $v0, 1
		li $a0, 0
		syscall
	`)
	if err := mc.run(t); err != nil {
		t.Fatal(err)
	}
	if int32(mc.c.Reg(isa.RegS0)) != -1 {
		t.Errorf("open missing = %d, want -1", int32(mc.c.Reg(isa.RegS0)))
	}
}

func TestBrk(t *testing.T) {
	mc := boot(t, `
	main:
		li $a0, 0
		li $v0, 17         # brk(0): query
		syscall
		move $s0, $v0
		addiu $a0, $s0, 0x2000
		li $v0, 17         # brk(start+0x2000)
		syscall
		move $s1, $v0
		li $v0, 1
		li $a0, 0
		syscall
	`)
	if err := mc.run(t); err != nil {
		t.Fatal(err)
	}
	start := mc.c.Reg(isa.RegS0)
	if start != (mc.im.DataEnd+0xFFF)&^uint32(0xFFF) {
		t.Errorf("initial brk = %#x", start)
	}
	if got := mc.c.Reg(isa.RegS1); got != start+0x2000 {
		t.Errorf("grown brk = %#x, want %#x", got, start+0x2000)
	}
	if mc.k.Break() != start+0x2000 {
		t.Errorf("kernel Break() = %#x", mc.k.Break())
	}
}

func TestUIDSyscalls(t *testing.T) {
	mc := boot(t, `
	main:
		li $v0, 24         # getuid
		syscall
		move $s0, $v0
		li $a0, 1000
		li $v0, 23         # setuid(1000): allowed as root
		syscall
		move $s1, $v0
		li $v0, 24
		syscall
		move $s2, $v0
		li $a0, 0
		li $v0, 23         # setuid(0): denied, no longer root
		syscall
		move $s3, $v0
		li $v0, 1
		li $a0, 0
		syscall
	`)
	if err := mc.run(t); err != nil {
		t.Fatal(err)
	}
	if mc.c.Reg(isa.RegS0) != 0 {
		t.Errorf("getuid = %d, want 0 (root)", int32(mc.c.Reg(isa.RegS0)))
	}
	if int32(mc.c.Reg(isa.RegS1)) != 0 || mc.c.Reg(isa.RegS2) != 1000 {
		t.Errorf("setuid: ret=%d uid=%d", int32(mc.c.Reg(isa.RegS1)), mc.c.Reg(isa.RegS2))
	}
	if int32(mc.c.Reg(isa.RegS3)) != -1 {
		t.Errorf("privilege re-escalation allowed: %d", int32(mc.c.Reg(isa.RegS3)))
	}
}

// TestSocketServerLifecycle drives the full cooperative blocking protocol:
// the guest binds, blocks in accept, the driver connects, the guest blocks
// in recv, the driver sends tainted bytes, the guest echoes them back.
func TestSocketServerLifecycle(t *testing.T) {
	mc := boot(t, `
	.data
	buf:	.space 64
	.text
	main:
		li $v0, 30         # socket
		syscall
		move $s0, $v0
		move $a0, $s0
		li $a1, 2121       # port
		li $v0, 31         # bind
		syscall
		move $s1, $v0
		move $a0, $s0
		li $a1, 5
		li $v0, 32         # listen
		syscall
		move $a0, $s0
		li $v0, 33         # accept (blocks)
		syscall
		move $s2, $v0      # conn fd
		move $a0, $s2
		la $a1, buf
		li $a2, 64
		li $v0, 34         # recv (blocks)
		syscall
		move $s3, $v0      # n
		move $a0, $s2
		la $a1, buf
		move $a2, $s3
		li $v0, 35         # send: echo
		syscall
		li $v0, 1
		li $a0, 0
		syscall
	`)
	// First run: blocks in accept.
	err := mc.run(t)
	var blocked *BlockedError
	if !errors.As(err, &blocked) || blocked.Op != "accept" {
		t.Fatalf("first run: %v", err)
	}
	if mc.c.Reg(isa.RegS1) != 0 {
		t.Fatalf("bind failed: %d", int32(mc.c.Reg(isa.RegS1)))
	}
	ep, err := mc.k.Net.Connect(2121)
	if err != nil {
		t.Fatal(err)
	}
	// Second run: accepts, then blocks in recv.
	err = mc.run(t)
	if !errors.As(err, &blocked) || blocked.Op != "recv" {
		t.Fatalf("second run: %v", err)
	}
	ep.SendString("USER alice")
	// Third run: recv, echo, exit.
	if err := mc.run(t); err != nil {
		t.Fatal(err)
	}
	if got := ep.RecvString(); got != "USER alice" {
		t.Errorf("echo = %q", got)
	}
	// The received buffer is tainted in guest memory.
	if got := mc.m.CountTainted(mc.im.Symbols["buf"], 10); got != 10 {
		t.Errorf("tainted bytes in recv buffer = %d, want 10", got)
	}
	if mc.k.Stats().BytesRead != 10 {
		t.Errorf("BytesRead = %d", mc.k.Stats().BytesRead)
	}
}

func TestRecvEOFAfterClientClose(t *testing.T) {
	mc := boot(t, `
	.data
	buf:	.space 8
	.text
	main:
		li $v0, 30
		syscall
		move $s0, $v0
		move $a0, $s0
		li $a1, 80
		li $v0, 31
		syscall
		move $a0, $s0
		li $v0, 33
		syscall
		move $s2, $v0
		move $a0, $s2
		la $a1, buf
		li $a2, 8
		li $v0, 34
		syscall
		move $s3, $v0
		li $v0, 1
		li $a0, 0
		syscall
	`)
	err := mc.run(t)
	var blocked *BlockedError
	if !errors.As(err, &blocked) {
		t.Fatalf("expected accept block: %v", err)
	}
	ep, err := mc.k.Net.Connect(80)
	if err != nil {
		t.Fatal(err)
	}
	ep.Close()
	if err := mc.run(t); err != nil {
		t.Fatal(err)
	}
	if got := int32(mc.c.Reg(isa.RegS3)); got != 0 {
		t.Errorf("recv after close = %d, want 0 (EOF)", got)
	}
}

func TestBadDescriptors(t *testing.T) {
	mc := boot(t, `
	.data
	buf:	.space 4
	.text
	main:
		li $a0, 99
		la $a1, buf
		li $a2, 4
		li $v0, 3          # read bad fd
		syscall
		move $s0, $v0
		li $a0, 99
		li $v0, 6          # close bad fd
		syscall
		move $s1, $v0
		li $a0, 99
		li $a1, 80
		li $v0, 31         # bind bad fd
		syscall
		move $s2, $v0
		li $v0, 1
		li $a0, 0
		syscall
	`)
	if err := mc.run(t); err != nil {
		t.Fatal(err)
	}
	for i, r := range []isa.Register{isa.RegS0, isa.RegS1, isa.RegS2} {
		if got := int32(mc.c.Reg(r)); got != -1 {
			t.Errorf("bad-fd op %d = %d, want -1", i, got)
		}
	}
}

func TestUnknownSyscallFaults(t *testing.T) {
	mc := boot(t, "main: li $v0, 999\nsyscall\n")
	err := mc.run(t)
	var f *cpu.Fault
	if !errors.As(err, &f) || !strings.Contains(f.Error(), "unknown syscall") {
		t.Errorf("err = %v", err)
	}
}

func TestSetArgsLayoutAndTaint(t *testing.T) {
	im, err := asm.AssembleString(`
	main:
		# argc in $a0, argv in $a1, envp in $a2 at entry.
		lw $s0, 0($a1)     # argv[0]
		lw $s1, 4($a1)     # argv[1]
		lb $s2, 0($s1)     # first byte of argv[1]
		lw $s3, 0($a2)     # envp[0]
		move $s4, $a0
		li $v0, 1
		li $a0, 0
		syscall
	`)
	if err != nil {
		t.Fatal(err)
	}
	k := New()
	m := mem.New()
	c := cpu.New(cpu.Config{Bus: m, Handler: k, Image: im})
	c.LoadImage(m, im)
	k.SetArgs(c, []string{"traceroute", "-g"}, []string{"PATH=/bin"})
	if err := c.Run(1000); err != nil {
		t.Fatal(err)
	}
	if got := c.Reg(isa.RegS4); got != 2 {
		t.Errorf("argc = %d", got)
	}
	arg0 := m.ReadCString(c.Reg(isa.RegS0), 64)
	if arg0 != "traceroute" {
		t.Errorf("argv[0] = %q", arg0)
	}
	if got := byte(c.Reg(isa.RegS2)); got != '-' {
		t.Errorf("argv[1][0] = %q", got)
	}
	env0 := m.ReadCString(c.Reg(isa.RegS3), 64)
	if env0 != "PATH=/bin" {
		t.Errorf("envp[0] = %q", env0)
	}
	// Argument string bytes are tainted; the loaded byte carries taint.
	if got := c.RegTaint(isa.RegS2); !got.Any() {
		t.Error("argv byte load is untainted; command line must be a taint source")
	}
	// Pointer array itself is not tainted.
	if got := c.RegTaint(isa.RegS1); got.Any() {
		t.Error("argv pointer array tainted")
	}
	// Stack pointer moved below the block and stayed aligned.
	if sp := c.Reg(isa.RegSP); sp >= asm.StackTop || sp%8 != 0 {
		t.Errorf("sp = %#x", sp)
	}
}

// TestReadOntoOwnText: a guest that read()s over code it has already run
// must execute the new bytes on both engines. The kernel's copy-out
// evicts the overlapped predecoded text as a guest store would.
func TestReadOntoOwnText(t *testing.T) {
	patch, err := isa.Encode(isa.Instruction{Op: isa.OpADDIU, Rs: isa.RegZero, Rt: isa.RegA0, Imm: 42})
	if err != nil {
		t.Fatal(err)
	}
	const src = `
	main:
		li $s0, 2
	patch:
		addiu $a0, $zero, 1
		addiu $s0, $s0, -1
		beq $s0, $zero, done
		li $a0, 0          # stdin
		la $a1, patch
		li $a2, 4
		li $v0, 3          # read over patch
		syscall
		j patch
	done:
		li $v0, 1
		syscall            # exit($a0)
	`
	for _, fast := range []bool{false, true} {
		mc := boot(t, src)
		mc.k.SetStdin([]byte{byte(patch), byte(patch >> 8), byte(patch >> 16), byte(patch >> 24)})
		run := mc.c.Run
		if fast {
			run = mc.c.RunFast
		}
		var ee *cpu.ExitError
		if err := run(1_000_000); !errors.As(err, &ee) || ee.Code != 42 {
			t.Errorf("fast=%v: got %v, want exit status 42 (the instruction read over the text)", fast, err)
		}
	}
}

// TestHostileTransferLengths: a guest asking read/write for gigabytes
// gets what exists (read) or one bounded transfer (write), the same on
// both engines, without the host allocating anything near the asked
// length.
func TestHostileTransferLengths(t *testing.T) {
	const src = `
	.data
	buf:	.space 16
	.text
	main:
		li $a0, 0          # stdin
		la $a1, buf
		li $a2, 0xFFFFFF00
		li $v0, 3          # read
		syscall
		move $s0, $v0
		li $a0, 1          # stdout
		la $a1, buf
		li $a2, 0x7FFFFFFF
		li $v0, 4          # write
		syscall
		move $s1, $v0
		li $v0, 1
		li $a0, 0
		syscall
	`
	type result struct {
		read, wrote uint32
		out         string
	}
	run := func(fast bool) result {
		mc := boot(t, src)
		mc.k.SetStdin([]byte("abc"))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		var err error
		if fast {
			err = mc.c.RunFast(1_000_000)
		} else {
			err = mc.c.Run(1_000_000)
		}
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("fast=%v: %v", fast, err)
		}
		if d := after.TotalAlloc - before.TotalAlloc; d >= 16<<20 {
			t.Errorf("fast=%v: host allocated %d bytes", fast, d)
		}
		return result{mc.c.Reg(isa.RegS0), mc.c.Reg(isa.RegS1), mc.k.Stdout()}
	}
	ref, fast := run(false), run(true)
	if ref.read != 3 {
		t.Errorf("read returned %d, want 3", ref.read)
	}
	if ref.wrote != maxTransfer || len(ref.out) != maxTransfer || !strings.HasPrefix(ref.out, "abc\x00") {
		t.Errorf("write returned %d with %d bytes of stdout, want one %d-byte transfer starting with the input",
			ref.wrote, len(ref.out), maxTransfer)
	}
	if ref != fast {
		t.Errorf("engines differ: reference read %d wrote %d, fast read %d wrote %d (stdout equal: %v)",
			ref.read, ref.wrote, fast.read, fast.wrote, ref.out == fast.out)
	}
}
