// ptdbg is an interactive debugger for guest programs on the
// pointer-taintedness machine. It is script-friendly: commands come from
// stdin, one per line.
//
// Usage:
//
//	ptdbg [-policy pointer|control|off] [-stdin file] program.c [-- args]
//
// Commands:
//
//	s [n]          step n instructions (default 1), tracing each
//	c              continue to breakpoint / alert / exit / block
//	b <sym|addr>   set a breakpoint
//	r              dump nonzero registers with taint vectors
//	x <sym|addr> [n]  hex-dump n bytes (default 64) with taint marks
//	d [n]          disassemble n instructions at pc (default 8)
//	sym <name>     resolve a symbol
//	watch <sym|addr> <len> <name>   add a never-tainted annotation
//	q              quit
package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/analysis"
	"repro/internal/asm"
	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/internal/rtl"
	"repro/internal/taint"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ptdbg:", err)
		os.Exit(1)
	}
}

// debugger holds one session.
type debugger struct {
	im     *asm.Image
	k      *kernel.Kernel
	c      *cpu.CPU
	m      *mem.Memory
	res    *analysis.Result // static verdicts; nil when analysis failed
	out    io.Writer
	breaks map[uint32]bool
	done   bool
}

func run(args []string, in io.Reader, out io.Writer) error {
	policyName := "pointer"
	stdinPath := ""
	rest := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		switch args[i] {
		case "-policy":
			i++
			if i >= len(args) {
				return fmt.Errorf("-policy needs a value")
			}
			policyName = args[i]
		case "-stdin":
			i++
			if i >= len(args) {
				return fmt.Errorf("-stdin needs a value")
			}
			stdinPath = args[i]
		default:
			rest = append(rest, args[i])
		}
	}
	if len(rest) == 0 {
		return fmt.Errorf("no program")
	}
	policy, ok := taint.ParsePolicy(policyName)
	if !ok {
		return fmt.Errorf("unknown policy %q", policyName)
	}

	src, err := os.ReadFile(rest[0])
	if err != nil {
		return err
	}
	var im *asm.Image
	if strings.HasSuffix(rest[0], ".s") {
		im, err = asm.Assemble(asm.Source{Name: rest[0], Text: string(src)})
	} else {
		im, err = rtl.Build(cc.Unit{Name: rest[0], Src: string(src)})
	}
	if err != nil {
		return err
	}

	var stdin []byte
	if stdinPath != "" {
		if stdin, err = os.ReadFile(stdinPath); err != nil {
			return err
		}
	}
	// The debugger single-steps the reference interpreter and leaves the
	// guest's memory uncapped.
	mach, err := core.BootImage(core.Config{
		Policy: policy, ProgName: rest[0], Args: rest[1:], Stdin: stdin,
		Reference: true, MemLimit: -1,
	}, im)
	if err != nil {
		return err
	}

	d := &debugger{im: im, k: mach.Kernel, c: mach.CPU, m: mach.Mem, out: out, breaks: map[uint32]bool{}}
	// Static verdicts annotate the disassembly; a failed analysis just
	// leaves the annotations off — the debugger stays usable regardless.
	if res, err := analysis.Analyze(im, taint.Propagator{}); err == nil {
		d.res = res
	}
	fmt.Fprintf(out, "ptdbg: %s loaded, entry %#08x, policy %v\n", rest[0], im.Entry, policy)
	sc := bufio.NewScanner(in)
	fmt.Fprint(out, "> ")
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line != "" {
			if quit := d.command(line); quit {
				return nil
			}
		}
		fmt.Fprint(out, "> ")
	}
	return sc.Err()
}

// command executes one debugger command; returns true to quit.
func (d *debugger) command(line string) bool {
	fields := strings.Fields(line)
	cmd, args := fields[0], fields[1:]
	switch cmd {
	case "q", "quit":
		return true
	case "s", "step":
		n := 1
		if len(args) > 0 {
			if v, err := strconv.Atoi(args[0]); err == nil && v > 0 {
				n = v
			}
		}
		d.step(n)
	case "c", "continue":
		d.cont()
	case "b", "break":
		if len(args) != 1 {
			fmt.Fprintln(d.out, "usage: b <sym|addr>")
			return false
		}
		addr, err := d.resolve(args[0])
		if err != nil {
			fmt.Fprintln(d.out, err)
			return false
		}
		d.breaks[addr] = true
		fmt.Fprintf(d.out, "breakpoint at %#08x\n", addr)
	case "r", "regs":
		d.regs()
	case "x", "dump":
		if len(args) < 1 {
			fmt.Fprintln(d.out, "usage: x <sym|addr> [n]")
			return false
		}
		addr, err := d.resolve(args[0])
		if err != nil {
			fmt.Fprintln(d.out, err)
			return false
		}
		n := 64
		if len(args) > 1 {
			if v, err := strconv.Atoi(args[1]); err == nil && v > 0 {
				n = v
			}
		}
		d.dump(addr, n)
	case "d", "dis":
		n := 8
		if len(args) > 0 {
			if v, err := strconv.Atoi(args[0]); err == nil && v > 0 {
				n = v
			}
		}
		d.disasm(d.c.PC(), n)
	case "sym":
		if len(args) != 1 {
			fmt.Fprintln(d.out, "usage: sym <name>")
			return false
		}
		if a, ok := d.im.Symbols[args[0]]; ok {
			fmt.Fprintf(d.out, "%s = %#08x\n", args[0], a)
		} else {
			fmt.Fprintf(d.out, "no symbol %q\n", args[0])
		}
	case "watch":
		if len(args) != 3 {
			fmt.Fprintln(d.out, "usage: watch <sym|addr> <len> <name>")
			return false
		}
		addr, err := d.resolve(args[0])
		if err != nil {
			fmt.Fprintln(d.out, err)
			return false
		}
		n, err := strconv.Atoi(args[1])
		if err != nil || n <= 0 {
			fmt.Fprintln(d.out, "bad length")
			return false
		}
		d.c.AddTaintWatch(addr, uint32(n), args[2])
		fmt.Fprintf(d.out, "watching %q [%#08x, +%d)\n", args[2], addr, n)
	default:
		fmt.Fprintf(d.out, "unknown command %q\n", cmd)
	}
	return false
}

// resolve parses a symbol name or hex/decimal address.
func (d *debugger) resolve(s string) (uint32, error) {
	if a, ok := d.im.Symbols[s]; ok {
		return a, nil
	}
	v, err := strconv.ParseUint(s, 0, 32)
	if err != nil {
		return 0, fmt.Errorf("no symbol or address %q", s)
	}
	return uint32(v), nil
}

func (d *debugger) step(n int) {
	if d.done {
		fmt.Fprintln(d.out, "program has terminated")
		return
	}
	for i := 0; i < n; i++ {
		d.printLocation()
		if stop := d.advance(); stop {
			return
		}
	}
}

func (d *debugger) cont() {
	if d.done {
		fmt.Fprintln(d.out, "program has terminated")
		return
	}
	const slice = 50_000_000
	for i := 0; i < slice; i++ {
		if stop := d.advance(); stop {
			return
		}
		if d.breaks[d.c.PC()] {
			fmt.Fprintf(d.out, "breakpoint hit at %#08x\n", d.c.PC())
			d.printLocation()
			return
		}
	}
	fmt.Fprintln(d.out, "continue: instruction slice exhausted (still running)")
}

// advance executes one instruction, reporting terminal events; returns
// true when the session should stop advancing.
func (d *debugger) advance() bool {
	err := d.c.Step()
	if halted, code := d.c.Halted(); halted {
		fmt.Fprintf(d.out, "program exited with status %d\n", code)
		d.flushOutput()
		d.done = true
		return true
	}
	if err == nil {
		return false
	}
	var blocked *kernel.BlockedError
	if errors.As(err, &blocked) {
		fmt.Fprintf(d.out, "guest blocked: %v\n", blocked)
		d.flushOutput()
		return true
	}
	fmt.Fprintf(d.out, "!! %v\n", err)
	d.flushOutput()
	d.done = true
	return true
}

func (d *debugger) flushOutput() {
	if s := d.k.Stdout(); s != "" {
		fmt.Fprintf(d.out, "--- guest stdout ---\n%s--------------------\n", s)
	}
}

func (d *debugger) printLocation() {
	pc := d.c.PC()
	word, _, err := d.m.LoadWord(pc)
	if err != nil {
		fmt.Fprintf(d.out, "%08x  <unmapped>\n", pc)
		return
	}
	in, derr := isa.Decode(word)
	sym, off := d.im.SymbolAt(pc)
	loc := ""
	if sym != "" {
		loc = fmt.Sprintf("  <%s+%#x>", sym, off)
	}
	if derr != nil {
		fmt.Fprintf(d.out, "%08x  %08x <bad>%s\n", pc, word, loc)
		return
	}
	fmt.Fprintf(d.out, "%08x  %-26s%s%s\n", pc, isa.Disassemble(in, pc), loc, d.verdictMark(pc))
}

// verdictMark renders the static analyzer's verdict for a dereference
// site as a disassembly annotation; non-dereference pcs get none.
func (d *debugger) verdictMark(pc uint32) string {
	if d.res == nil {
		return ""
	}
	switch d.res.VerdictAt(pc) {
	case analysis.ProvablyClean:
		return "  [static: clean]"
	case analysis.MayDereferenceTainted:
		return "  [static: may-tainted]"
	}
	return ""
}

func (d *debugger) regs() {
	for r := 0; r < isa.NumRegisters; r++ {
		reg := isa.Register(r)
		v := d.c.Reg(reg)
		tv := d.c.RegTaint(reg)
		if v == 0 && !tv.Any() {
			continue
		}
		fmt.Fprintf(d.out, "%-5s %08x  %v\n", reg.String(), v, tv)
	}
	fmt.Fprintf(d.out, "pc    %08x\n", d.c.PC())
}

func (d *debugger) dump(addr uint32, n int) {
	for base := addr &^ 15; base < addr+uint32(n); base += 16 {
		data, taints := d.m.ReadBytes(base, 16)
		fmt.Fprintf(d.out, "%08x  ", base)
		for i, b := range data {
			mark := ' '
			if taints[i] {
				mark = '*'
			}
			fmt.Fprintf(d.out, "%02x%c", b, mark)
		}
		fmt.Fprint(d.out, " |")
		for _, b := range data {
			if b >= 32 && b < 127 {
				fmt.Fprintf(d.out, "%c", b)
			} else {
				fmt.Fprint(d.out, ".")
			}
		}
		fmt.Fprintln(d.out, "|")
	}
	fmt.Fprintln(d.out, "(* = tainted byte)")
}

func (d *debugger) disasm(addr uint32, n int) {
	for i := 0; i < n; i++ {
		pc := addr + uint32(4*i)
		word, _, err := d.m.LoadWord(pc)
		if err != nil {
			return
		}
		in, derr := isa.Decode(word)
		if derr != nil {
			fmt.Fprintf(d.out, "%08x  %08x  <data>\n", pc, word)
			continue
		}
		fmt.Fprintf(d.out, "%08x  %-26s%s\n", pc, isa.Disassemble(in, pc), d.verdictMark(pc))
	}
}
