package isacmp

import (
	"errors"
	"slices"
	"testing"

	"isacmp/internal/a64"
	"isacmp/internal/elfio"
	"isacmp/internal/isa"
	"isacmp/internal/mem"
	"isacmp/internal/report"
	"isacmp/internal/rv64"
	"isacmp/internal/simeng"
)

// batchLen is the length of simeng's run-loop batches.
const batchLen = 4096

// oneStep is a machine whose StepN retires one instruction, through
// the wrapped machine's Step, so the run loop hands each event to the
// sink on its own and reuses one event slot for the whole run.
type oneStep struct{ simeng.Machine }

func (o oneStep) StepN(evs []isa.Event) (int, bool, error) {
	if done, err := o.Step(&evs[0]); done || err != nil {
		return 0, done, err
	}
	return 1, false, nil
}

// Steps forwards the wrapped machine's retired count.
func (o oneStep) Steps() uint64 { return o.Machine.(interface{ Steps() uint64 }).Steps() }

// unbatched returns ex with every cell run through oneStep: each event
// reaches the fusion pass, the tee or the fan-out, and every sink
// behind them, in a batch of its own.
func unbatched(ex report.Experiment) report.Experiment {
	ex.WrapMachine = func(_, _ string, _ int, m simeng.Machine) simeng.Machine { return oneStep{m} }
	return ex
}

// corruptSymbolWord compiles stream at Tiny scale for tgt and, in each
// machine fresh returns, replaces the first text word of symbol sym
// with the all-zero word, an unallocated encoding on both ISAs.
func corruptSymbolWord(t *testing.T, tgt Target, sym string) (fresh func() simeng.Machine) {
	t.Helper()
	bin, err := Compile(Workload("stream", Tiny), tgt)
	if err != nil {
		t.Fatal(err)
	}
	text := textSegmentOf(t, bin.compiled.File)
	i := slices.IndexFunc(bin.compiled.File.Symbols, func(s elfio.Symbol) bool { return s.Name == sym })
	if i < 0 {
		t.Fatalf("%s: no symbol %s", tgt, sym)
	}
	off := bin.compiled.File.Symbols[i].Value - text.Vaddr
	copy(text.Data[off:off+4], []byte{0, 0, 0, 0})
	return func() simeng.Machine {
		mach, _, err := bin.NewMachine()
		if err != nil {
			t.Fatal(err)
		}
		return mach
	}
}

// loadFaultProgram builds a machine that counts a loop down from 5000,
// two instructions an iteration, then loads from an address outside
// its memory: the fault comes inside a run-loop batch.
func loadFaultProgram(t *testing.T, arch Arch) func() simeng.Machine {
	t.Helper()
	const bad = 0x7fff_0000_0000
	var f *elfio.File
	var err error
	switch arch {
	case AArch64:
		a := a64.NewAsm()
		a.MOV64(1, 5000)
		a.MOV64(2, bad)
		a.Label("loop")
		a.SUBSi(1, 1, 1)
		a.Bc(a64.NE, "loop")
		a.LDRx(0, 2, 0)
		a.MOV64(8, isa.SysExit)
		a.SVC()
		f, err = a.Build(a64.Program{TextBase: 0x10000})
	case RV64:
		a := rv64.NewAsm()
		a.LI(5, 5000)
		a.LI(6, bad)
		a.Label("loop")
		a.ADDI(5, 5, -1)
		a.BNE(5, 0, "loop")
		a.LD(10, 6, 0)
		a.LI(17, isa.SysExit)
		a.ECALL()
		f, err = a.Build(rv64.Program{TextBase: 0x10000})
	}
	if err != nil {
		t.Fatal(err)
	}
	return func() simeng.Machine {
		m := mem.New(0x10000, 1<<20)
		var mach simeng.Machine
		var err error
		if arch == AArch64 {
			mach, err = a64.NewMachine(f, m)
		} else {
			mach, err = rv64.NewMachine(f, m)
		}
		if err != nil {
			t.Fatal(err)
		}
		return mach
	}
}

// faultRun is what one faulting run leaves behind.
type faultRun struct {
	se    *simeng.SimError
	pc    uint64
	steps uint64
	evs   []isa.Event
}

// visible returns the fields of ev a sink may read: the operands up to
// their counts and the accesses whose size is set. The rest is no part
// of the record.
func visible(ev *isa.Event) isa.Event {
	v := isa.Event{
		PC: ev.PC, Word: ev.Word, Group: ev.Group, NSrcs: ev.NSrcs, NDsts: ev.NDsts,
		Branch: ev.Branch, Taken: ev.Taken, Fused: ev.Fused,
	}
	copy(v.Srcs[:], ev.Srcs[:ev.NSrcs])
	copy(v.Dsts[:], ev.Dsts[:ev.NDsts])
	if ev.LoadSize > 0 {
		v.LoadAddr, v.LoadSize = ev.LoadAddr, ev.LoadSize
	}
	if ev.Load2Size > 0 {
		v.Load2Addr, v.Load2Size = ev.Load2Addr, ev.Load2Size
	}
	if ev.StoreSize > 0 {
		v.StoreAddr, v.StoreSize = ev.StoreAddr, ev.StoreSize
	}
	return v
}

func runToFault(t *testing.T, mach simeng.Machine) faultRun {
	t.Helper()
	var r faultRun
	record := SinkFunc(func(ev *isa.Event) { r.evs = append(r.evs, visible(ev)) })
	_, err := (&simeng.EmulationCore{}).Run(mach, record)
	if !errors.As(err, &r.se) {
		t.Fatalf("run did not fault with a SimError: %v", err)
	}
	r.pc = mach.PC()
	r.steps = mach.(interface{ Steps() uint64 }).Steps()
	return r
}

// TestStepNFaultsMatchUnbatched pins the run loop's fault semantics
// on both ISAs for faults reached after many retirements: a text word
// that failed predecode (the first word of _exit) and an out-of-range
// load inside a batch. The batched run must fault with the same kind,
// PC and retired count, leave the same PC and Steps, and deliver the
// same events as a run of one Step per batch (oneStep).
func TestStepNFaultsMatchUnbatched(t *testing.T) {
	for _, tgt := range Targets() {
		cases := []struct {
			name  string
			fresh func() simeng.Machine
			kind  error
		}{
			{"bad word", corruptSymbolWord(t, tgt, "_exit"), simeng.ErrDecode},
			{"bad load", loadFaultProgram(t, tgt.Arch), simeng.ErrMemFault},
		}
		for _, c := range cases {
			want := runToFault(t, oneStep{c.fresh()})
			got := runToFault(t, c.fresh())
			if !errors.Is(got.se, c.kind) {
				t.Fatalf("%s %s: fault %v, want %v", tgt, c.name, got.se, c.kind)
			}
			if got.se.Kind != want.se.Kind || got.se.PC != want.se.PC || got.se.Retired != want.se.Retired ||
				got.pc != want.pc || got.steps != want.steps {
				t.Fatalf("%s %s: batched fault %v at pc=%#x retired=%d, PC %#x, Steps %d; unbatched %v at pc=%#x retired=%d, PC %#x, Steps %d",
					tgt, c.name, got.se.Kind, got.se.PC, got.se.Retired, got.pc, got.steps,
					want.se.Kind, want.se.PC, want.se.Retired, want.pc, want.steps)
			}
			if got.se.Retired == 0 || got.steps != got.se.Retired || got.pc != got.se.PC {
				t.Fatalf("%s %s: fault at pc=%#x retired=%d, machine at PC %#x after %d steps",
					tgt, c.name, got.se.PC, got.se.Retired, got.pc, got.steps)
			}
			if c.name == "bad load" && got.se.Retired%batchLen == 0 {
				t.Fatalf("%s: load fault at retirement %d is not inside a batch", tgt, got.se.Retired)
			}
			if !slices.Equal(got.evs, want.evs) {
				t.Fatalf("%s %s: batched run delivered %d events, unbatched %d, or they differ",
					tgt, c.name, len(got.evs), len(want.evs))
			}
		}
	}
}

// TestStepNZeroAllocMachines proves StepN allocates nothing in steady
// state on a real machine of each ISA.
func TestStepNZeroAllocMachines(t *testing.T) {
	for _, arch := range []Arch{AArch64, RV64} {
		tgt := Target{Arch: arch, Flavor: GCC12}
		bin, err := Compile(Workload("stream", Small), tgt)
		if err != nil {
			t.Fatal(err)
		}
		mach, _, err := bin.NewMachine()
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]isa.Event, batchLen)
		step := func() {
			if _, done, err := mach.StepN(buf); done || err != nil {
				t.Fatalf("%s: stream ended inside the measurement: done %t, err %v", tgt, done, err)
			}
		}
		step()
		if allocs := testing.AllocsPerRun(50, step); allocs != 0 {
			t.Fatalf("%s: StepN allocated %.1f times per batch", tgt, allocs)
		}
	}
}
