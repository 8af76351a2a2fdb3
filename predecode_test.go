package isacmp

import (
	"errors"
	"testing"

	"isacmp/internal/a64"
	"isacmp/internal/elfio"
	"isacmp/internal/elfio/elftest"
	"isacmp/internal/isa"
	"isacmp/internal/rv64"
	"isacmp/internal/simeng"
)

// textSegmentOf returns the single executable segment of a compiled
// binary.
func textSegmentOf(t *testing.T, f *elfio.File) *elfio.Segment {
	t.Helper()
	text, err := f.Text()
	if err != nil {
		t.Fatal(err)
	}
	return text
}

// TestPredecodeSweep is the exhaustive predecode equality check: for
// every compiled workload on every target, every word of the text
// segment must predecode to exactly what a fresh Decode of the raw
// word produces, and its event template must carry its PC and word —
// the predecode cache can never serve a stale or wrong instruction
// because the text is immutable (see DESIGN.md).
func TestPredecodeSweep(t *testing.T) {
	for _, p := range Suite(Tiny) {
		for _, tgt := range Targets() {
			bin, err := Compile(p, tgt)
			if err != nil {
				t.Fatalf("%s %s: %v", p.Name, tgt, err)
			}
			mach, _, err := bin.NewMachine()
			if err != nil {
				t.Fatalf("%s %s: %v", p.Name, tgt, err)
			}
			text := textSegmentOf(t, bin.compiled.File)
			words := text.Words()
			bad := 0
			for i, w := range words {
				pc := text.Vaddr + uint64(i*4)
				switch tgt.Arch {
				case isa.AArch64:
					m := mach.(*a64.Machine)
					got, ok := m.InstAt(pc)
					if !ok {
						t.Fatalf("%s %s: pc %#x not in predecode cache", p.Name, tgt, pc)
					}
					if tm := m.Tmpl[i]; tm.PC != pc || tm.Word != w {
						t.Fatalf("%s %s: pc %#x word %#x: template holds pc %#x word %#x",
							p.Name, tgt, pc, w, tm.PC, tm.Word)
					}
					want, derr := a64.Decode(w)
					if derr != nil {
						bad++
						want = a64.Inst{} // bad slot stays the zero Inst
					}
					if got != want {
						t.Fatalf("%s %s: pc %#x word %#x: cached %+v != decoded %+v",
							p.Name, tgt, pc, w, got, want)
					}
				case isa.RV64:
					m := mach.(*rv64.Machine)
					got, ok := m.InstAt(pc)
					if !ok {
						t.Fatalf("%s %s: pc %#x not in predecode cache", p.Name, tgt, pc)
					}
					if tm := m.Tmpl[i]; tm.PC != pc || tm.Word != w {
						t.Fatalf("%s %s: pc %#x word %#x: template holds pc %#x word %#x",
							p.Name, tgt, pc, w, tm.PC, tm.Word)
					}
					want, derr := rv64.Decode(w)
					if derr != nil {
						bad++
						want = rv64.Inst{}
					}
					if got != want {
						t.Fatalf("%s %s: pc %#x word %#x: cached %+v != decoded %+v",
							p.Name, tgt, pc, w, got, want)
					}
				}
			}
			src, ok := mach.(isa.PredecodeStatsSource)
			if !ok {
				t.Fatalf("%s %s: machine does not report predecode stats", p.Name, tgt)
			}
			st := src.PredecodeStats()
			if st.TextWords != uint64(len(words)) {
				t.Fatalf("%s %s: TextWords = %d, want %d", p.Name, tgt, st.TextWords, len(words))
			}
			if st.BadWords != uint64(bad) {
				t.Fatalf("%s %s: BadWords = %d, sweep found %d", p.Name, tgt, st.BadWords, bad)
			}
			if st.Fallbacks != 0 {
				t.Fatalf("%s %s: %d fallbacks before any Step", p.Name, tgt, st.Fallbacks)
			}
		}
	}
}

// TestImageReadBackIdentical checks every compiled workload's
// executable, on every target, with debug/elf: the image parses back
// to the compiled file, its segments, their section names and its
// symbols included.
func TestImageReadBackIdentical(t *testing.T) {
	for _, p := range Suite(Tiny) {
		for _, tgt := range Targets() {
			bin, err := Compile(p, tgt)
			if err != nil {
				t.Fatalf("%s %s: %v", p.Name, tgt, err)
			}
			if err := elftest.Check(bin.compiled.File); err != nil {
				t.Fatalf("%s %s: %v", p.Name, tgt, err)
			}
		}
	}
}

// corruptFirstTextWord compiles the workload and overwrites the first
// text word with an unallocated encoding before machine construction.
func corruptFirstTextWord(t *testing.T, tgt Target) (simeng.Machine, uint64) {
	t.Helper()
	bin, err := Compile(Workload("stream", Tiny), tgt)
	if err != nil {
		t.Fatal(err)
	}
	text := textSegmentOf(t, bin.compiled.File)
	// The all-zero word is an unallocated encoding on both ISAs.
	text.Data[0], text.Data[1], text.Data[2], text.Data[3] = 0, 0, 0, 0
	mach, _, err := bin.NewMachine()
	if err != nil {
		t.Fatalf("tolerant predecode must not fail construction: %v", err)
	}
	return mach, text.Vaddr
}

// TestPredecodeTolerantBadWord checks the fallback path on both ISAs:
// a text word that fails to predecode does not fail machine
// construction; it faults with a classified decode error only when
// the PC actually reaches it, and the fallback counter records the
// attempt.
func TestPredecodeTolerantBadWord(t *testing.T) {
	for _, tgt := range Targets() {
		mach, badPC := corruptFirstTextWord(t, tgt)
		st := mach.(isa.PredecodeStatsSource).PredecodeStats()
		if st.BadWords != 1 {
			t.Fatalf("%s: BadWords = %d, want 1", tgt, st.BadWords)
		}

		// Point the PC at the bad word: Step must fault, and the fault
		// must classify as a decode error.
		switch m := mach.(type) {
		case *a64.Machine:
			m.PCReg = badPC
		case *rv64.Machine:
			m.PCReg = badPC
		}
		var ev isa.Event
		_, err := mach.Step(&ev)
		if err == nil {
			t.Fatalf("%s: executing a bad word did not fault", tgt)
		}
		if !errors.Is(simeng.Classify(err), simeng.ErrDecode) {
			t.Fatalf("%s: fault classified as %v, want ErrDecode", tgt, simeng.Classify(err))
		}
		st = mach.(isa.PredecodeStatsSource).PredecodeStats()
		if st.Fallbacks != 1 {
			t.Fatalf("%s: Fallbacks = %d after bad-word fetch, want 1", tgt, st.Fallbacks)
		}

		// Point the PC outside the text segment: Step must fault and the
		// fallback counter must record the missed fetch.
		switch m := mach.(type) {
		case *a64.Machine:
			m.PCReg = 0x40
		case *rv64.Machine:
			m.PCReg = 0x40
		}
		if _, err := mach.Step(&ev); err == nil {
			t.Fatalf("%s: out-of-text fetch did not fault", tgt)
		}
		st = mach.(isa.PredecodeStatsSource).PredecodeStats()
		if st.Fallbacks != 2 {
			t.Fatalf("%s: Fallbacks = %d after out-of-text fetch, want 2", tgt, st.Fallbacks)
		}
	}
}

// TestPredecodeFaultsThroughStepN checks a bad word faults with the
// same classification and retirement count through the batched loop.
func TestPredecodeFaultsThroughStepN(t *testing.T) {
	for _, tgt := range Targets() {
		mach, badPC := corruptFirstTextWord(t, tgt)
		switch m := mach.(type) {
		case *a64.Machine:
			m.PCReg = badPC
		case *rv64.Machine:
			m.PCReg = badPC
		}
		_, err := (&simeng.EmulationCore{}).Run(mach, nil)
		if err == nil {
			t.Fatalf("%s: batched run over a bad word did not fault", tgt)
		}
		if !errors.Is(err, simeng.ErrDecode) {
			t.Fatalf("%s: batched fault = %v, want ErrDecode", tgt, err)
		}
		var se *simeng.SimError
		if !errors.As(err, &se) {
			t.Fatalf("%s: fault is not a SimError: %v", tgt, err)
		}
		if se.Retired != 0 || se.PC != badPC {
			t.Fatalf("%s: fault at pc=%#x retired=%d, want pc=%#x retired=0", tgt, se.PC, se.Retired, badPC)
		}
	}
}
