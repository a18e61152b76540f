package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/attack"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/progs"
	"repro/internal/taint"
)

// spec-suite boots each of the six SPEC analogues with its /input file
// tainted and runs it to exit: long clean guest runs where the superblock
// tier carries most instructions, with no fork and no network. An op is
// one pass over all six programs; two workers loop passes.

type specProg struct {
	prog   progs.Program
	input  []byte
	stdout string // the fast engine's output and instruction count,
	instrs uint64 // recorded before the first pass, checked by every pass
}

type specBench struct {
	progs    []*specProg
	recorded bool
}

// specInput derives a program's input from the seed: the reference input
// with its lines shuffled (line-oriented formats) or its bytes rotated,
// so every seed exercises the same format and size.
func specInput(name string, seed int64) []byte {
	in := progs.SpecInput(name, 1)
	rng := rand.New(rand.NewSource(seed))
	switch name {
	case "gccs", "mcfs", "vprs":
		lines := bytes.SplitAfter(in, []byte("\n"))
		rng.Shuffle(len(lines), func(i, j int) { lines[i], lines[j] = lines[j], lines[i] })
		return bytes.Join(lines, nil)
	}
	k := rng.Intn(len(in))
	return append(append([]byte{}, in[k:]...), in[:k]...)
}

func specOpts(input []byte, reference bool) attack.Options {
	return attack.Options{
		Policy:    taint.PolicyPointerTaintedness,
		Files:     map[string][]byte{"/input": input},
		Reference: reference,
	}
}

// setupSpec builds the six images and boots each once, which runs the
// static analysis; the seeded inputs are generated here too.
func setupSpec(seed int64) (bench, error) {
	b := &specBench{}
	for i, p := range progs.SpecSuite() {
		sp := &specProg{prog: p, input: specInput(p.Name, mix(seed, uint64(i)))}
		if _, err := attack.Boot(p, specOpts(sp.input, false)); err != nil {
			return nil, err
		}
		b.progs = append(b.progs, sp)
	}
	return b, nil
}

// record runs every program once and keeps its output and instruction
// count, which every later pass must reproduce (and check holds them to
// the reference engine).
func (b *specBench) record() error {
	if b.recorded {
		return nil
	}
	for _, sp := range b.progs {
		m, err := attack.Boot(sp.prog, specOpts(sp.input, false))
		if err != nil {
			return err
		}
		if err := m.Run(); err != nil {
			return fmt.Errorf("%s: %w", sp.prog.Name, err)
		}
		sp.stdout, sp.instrs = m.Kernel.Stdout(), m.CPU.Stats().Instructions
	}
	b.recorded = true
	return nil
}

// verify checks one finished run against the recorded output: clean
// exit, no alert (the paper's zero-false-positive claim), identical
// stdout and instruction count.
func (sp *specProg) verify(m *attack.Machine, err error) error {
	s := m.CPU.Stats()
	halted, code := m.CPU.Halted()
	switch {
	case err != nil:
		return fmt.Errorf("%s: %w", sp.prog.Name, err)
	case !halted || code != 0:
		return fmt.Errorf("%s: exit %d (halted %t)", sp.prog.Name, code, halted)
	case s.Alerts != 0:
		return fmt.Errorf("%s: %d alerts on benign input", sp.prog.Name, s.Alerts)
	case m.Kernel.Stdout() != sp.stdout || s.Instructions != sp.instrs:
		return fmt.Errorf("%s: output %q after %d instructions, want %q after %d",
			sp.prog.Name, m.Kernel.Stdout(), s.Instructions, sp.stdout, sp.instrs)
	}
	return nil
}

// pass boots and runs every program once and returns the instructions
// it retired and every failure. Traced, it also times each program's run
// and folds its counters into st.
func (b *specBench) pass(tr *obs.Tracer, op *obs.Span, st *specTrace) (uint64, []error) {
	var instrs uint64
	var errs []error
	for i, sp := range b.progs {
		bs := tr.Start(op, "attack.boot")
		m, err := attack.Boot(sp.prog, specOpts(sp.input, false))
		bs.End()
		if err != nil {
			errs = append(errs, fmt.Errorf("boot %s: %w", sp.prog.Name, err))
			continue
		}
		rs := tr.Start(op, "cpu.run")
		err = m.Run()
		d := rs.End()
		chk := tr.Start(op, "bench.check")
		if err := sp.verify(m, err); err != nil {
			errs = append(errs, err)
		}
		chk.End()
		s := m.CPU.Stats()
		instrs += s.Instructions
		if st != nil {
			mc := tr.Start(op, "metrics.capture")
			met := m.Metrics()
			mc.End()
			st.c.add(met, metrics.Snapshot{})
			st.run[i] += d
			st.instrs[i] += s.Instructions
			st.sb[i] += s.SuperblockInstrs
		}
	}
	return instrs, errs
}

// run loops rounds: both workers run one pass each, and the round is one
// sample.
func (b *specBench) run(d time.Duration) (*tally, error) {
	if err := b.record(); err != nil {
		return nil, err
	}
	t := &tally{}
	deadline := time.Now().Add(d)
	for first := true; first || time.Now().Before(deadline); first = false {
		w := startWatch()
		instrs := make([]uint64, workers)
		errs := make([][]error, workers)
		lat := make([]time.Duration, workers)
		var wg sync.WaitGroup
		for i := 0; i < workers; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				start := time.Now()
				instrs[i], errs[i] = b.pass(nil, nil, nil)
				lat[i] = time.Since(start)
			}()
		}
		wg.Wait()
		var sum uint64
		for i := range instrs {
			sum += instrs[i]
			for _, err := range errs[i] {
				t.fail(1, "%v", err)
			}
		}
		t.lap(w, workers, sum)
		t.lat = append(t.lat, lat...)
	}
	return t, nil
}

// specTrace accumulates the traced passes' per-program numbers.
type specTrace struct {
	c      counters
	run    []time.Duration
	instrs []uint64
	sb     []uint64
}

func (b *specBench) trace(d time.Duration, log *spanLog) (*tally, map[string]float64, error) {
	if err := b.record(); err != nil {
		return nil, nil, err
	}
	t := &tally{}
	st := &specTrace{c: counters{}, run: make([]time.Duration, len(b.progs)),
		instrs: make([]uint64, len(b.progs)), sb: make([]uint64, len(b.progs))}
	o, err := alternate(d, log, nil, func(j int, l *spanLog) (int, error) {
		tr, off := l.tracer()
		op := tr.Start(nil, "op")
		var traced *specTrace
		if l != nil {
			traced = st
		}
		_, errs := b.pass(tr, op, traced)
		op.End()
		l.fold(tr, off)
		t.ops++
		for _, err := range errs {
			t.fail(1, "%v", err)
		}
		return 1, nil
	})
	if err != nil {
		return nil, nil, err
	}
	vals := map[string]float64{}
	st.c.machineLayers(log.ops, vals)
	o.goLayers(vals)
	for i, sp := range b.progs {
		vals["spec."+sp.prog.Name+".ns_per_instr"] = ratio(float64(st.run[i].Nanoseconds()), float64(st.instrs[i]))
		vals["spec."+sp.prog.Name+".superblock_share"] = ratio(float64(st.sb[i]), float64(st.instrs[i]))
	}
	return t, vals, nil
}

// check is the engine oracle: the reference interpreter, which never uses
// the block, superblock or static-fact tiers, must produce the recorded
// output and instruction count for every seeded input.
func (b *specBench) check() error {
	for _, sp := range b.progs {
		m, err := attack.Boot(sp.prog, specOpts(sp.input, true))
		if err != nil {
			return err
		}
		if err := sp.verify(m, m.Run()); err != nil {
			return fmt.Errorf("reference engine: %w", err)
		}
	}
	return nil
}

func (b *specBench) close() {}
