package core

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/isa"
)

// homeProbe loads a word from buf into $s0, gives the kernel the chance
// to overwrite buf with input (the input syscall is spliced in), compares
// the now-stale $s0, and then dereferences the freshly read word. The
// compare untaints $s0 and writes through to its memory home; the input
// must have severed that home, or the write-through launders buf and the
// dereference of the tainted word goes unnoticed.
const homeProbe = `
	.data
buf:	.word 0
	.text
	.entry _start
_start:
%s
	la   $s1, buf
	lw   $s0, 0($s1)
%s
	slti $t3, $s0, 10
	lw   $t1, 0($s1)
	lw   $t2, 0($t1)
	li   $a0, 0
	li   $v0, 1
	syscall
`

// TestHostWriteSeversRegisterHome: a read or recv into the bytes a
// register was loaded from severs the register's memory home, so a
// compare on the stale register leaves the new input tainted and its
// dereference alerts, on every engine.
func TestHostWriteSeversRegisterHome(t *testing.T) {
	inputs := []struct {
		name, setup, input string
		port               uint16
	}{
		{name: "read", input: `
	li   $a0, 0
	move $a1, $s1
	li   $a2, 4
	li   $v0, 3
	syscall`},
		{name: "recv", port: 7171, setup: `
	li   $v0, 30
	syscall
	move $s2, $v0
	move $a0, $s2
	li   $a1, 7171
	li   $v0, 31
	syscall
	move $a0, $s2
	li   $v0, 33
	syscall
	move $s3, $v0`, input: `
	move $a0, $s3
	move $a1, $s1
	li   $a2, 4
	li   $v0, 34
	syscall`},
	}
	engines := []struct {
		name string
		cfg  Config
		sb   bool
	}{
		{"reference", Config{Reference: true}, true},
		{"block-only", Config{}, false},
		{"full", Config{}, true},
	}
	for _, in := range inputs {
		for _, eng := range engines {
			t.Run(in.name+"/"+eng.name, func(t *testing.T) {
				cfg := eng.cfg
				if in.port == 0 {
					cfg.Stdin = []byte("AAAA")
				}
				m, err := BuildASM(cfg, fmt.Sprintf(homeProbe, in.setup, in.input))
				if err != nil {
					t.Fatal(err)
				}
				m.CPU.SetSuperblocks(eng.sb)
				if in.port != 0 {
					if err := m.RunToBlock(); err != nil {
						t.Fatal(err)
					}
					ep, err := m.Connect(in.port)
					if err != nil {
						t.Fatal(err)
					}
					ep.SendString("AAAA")
				}
				var alert *SecurityAlert
				if err := m.Run(); !errors.As(err, &alert) {
					t.Fatalf("run = %v, want a security alert on the tainted dereference", err)
				}
				if alert.Reg != isa.RegT1 {
					t.Errorf("alert on %v, want $t1: %v", alert.Reg, alert)
				}
			})
		}
	}
}
