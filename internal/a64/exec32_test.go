package a64

import (
	"testing"

	"isacmp/internal/isa"
	"isacmp/internal/mem"
)

// run32 executes a hand-assembled sequence exercising 32-bit operand
// forms and returns the machine.
func run32(t *testing.T, build func(a *Asm)) *Machine {
	t.Helper()
	a := NewAsm()
	build(a)
	a.MOV64(0, 0)
	a.MOV64(8, isa.SysExit)
	a.SVC()
	f, err := a.Build(Program{TextBase: 0x10000})
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMachine(f, mem.New(0x10000, 1<<20))
	if err != nil {
		t.Fatal(err)
	}
	var ev isa.Event
	for i := 0; i < 100000; i++ {
		done, err := m.Step(&ev)
		if err != nil {
			t.Fatal(err)
		}
		if done {
			return m
		}
	}
	t.Fatal("no exit")
	return nil
}

func TestW32Arithmetic(t *testing.T) {
	m := run32(t, func(a *Asm) {
		a.MOV64(1, 0xFFFFFFFF) // max uint32
		a.MOV64(2, 1)
		// add w3, w1, w2 -> wraps to 0, upper bits cleared
		a.Emit(Inst{Op: ADDr, Sf: false, Rd: 3, Rn: 1, Rm: 2})
		// sub w4, w2, w1 -> 2 in 32-bit arithmetic
		a.Emit(Inst{Op: SUBr, Sf: false, Rd: 4, Rn: 2, Rm: 1})
		// adds w5, w1, w2: carry out set
		a.Emit(Inst{Op: ADDSr, Sf: false, Rd: 5, Rn: 1, Rm: 2})
		a.CSET(6, CS)
	})
	if m.X[3] != 0 {
		t.Errorf("32-bit add wrap: %#x", m.X[3])
	}
	if m.X[4] != 2 {
		t.Errorf("32-bit sub: %#x", m.X[4])
	}
	if m.X[6] != 1 {
		t.Errorf("32-bit carry not set: cset=%d", m.X[6])
	}
}

func TestW32Flags(t *testing.T) {
	m := run32(t, func(a *Asm) {
		a.MOV64(1, 0x7FFFFFFF) // MaxInt32
		a.MOV64(2, 1)
		// adds w3, w1, w2: signed overflow in 32 bits
		a.Emit(Inst{Op: ADDSr, Sf: false, Rd: 3, Rn: 1, Rm: 2})
		a.CSET(4, VS) // overflow
		a.CSET(5, MI) // negative (0x80000000)
		// The same addition in 64 bits overflows nothing.
		a.Emit(Inst{Op: ADDSr, Sf: true, Rd: 6, Rn: 1, Rm: 2})
		a.CSET(7, VS)
	})
	if m.X[4] != 1 {
		t.Error("32-bit signed overflow flag not set")
	}
	if m.X[5] != 1 {
		t.Error("32-bit negative flag not set")
	}
	if m.X[7] != 0 {
		t.Error("64-bit add wrongly flagged overflow")
	}
}

func TestW32Shifts(t *testing.T) {
	m := run32(t, func(a *Asm) {
		a.MOV64(1, 0x80000000)
		a.MOV64(2, 31)
		// asrv w3, w1, w2: arithmetic shift of negative 32-bit value
		a.Emit(Inst{Op: ASRV, Sf: false, Rd: 3, Rn: 1, Rm: 2})
		// lsrv w4, w1, w2: logical
		a.Emit(Inst{Op: LSRV, Sf: false, Rd: 4, Rn: 1, Rm: 2})
		// lslv w5, w1, w2 with amount masked to 31
		a.MOV64(6, 1)
		a.Emit(Inst{Op: LSLV, Sf: false, Rd: 5, Rn: 6, Rm: 2})
	})
	if m.X[3] != 0xFFFFFFFF {
		t.Errorf("asr w: %#x (32-bit sign extension within W, zero upper)", m.X[3])
	}
	if m.X[4] != 1 {
		t.Errorf("lsr w: %#x", m.X[4])
	}
	if m.X[5] != 0x80000000 {
		t.Errorf("lsl w: %#x", m.X[5])
	}
}

func TestW32Divide(t *testing.T) {
	m := run32(t, func(a *Asm) {
		a.MOV64(1, 0xFFFFFFFF) // -1 as int32
		a.MOV64(2, 2)
		// sdiv w3, w1, w2 = -1/2 = 0
		a.Emit(Inst{Op: SDIV, Sf: false, Rd: 3, Rn: 1, Rm: 2})
		// udiv w4, w1, w2 = 0x7FFFFFFF
		a.Emit(Inst{Op: UDIV, Sf: false, Rd: 4, Rn: 1, Rm: 2})
		// sdiv w5, w1, wzr = 0 (AArch64 division by zero)
		a.Emit(Inst{Op: SDIV, Sf: false, Rd: 5, Rn: 1, Rm: ZR})
	})
	if m.X[3] != 0 {
		t.Errorf("sdiv w -1/2: %#x", m.X[3])
	}
	if m.X[4] != 0x7FFFFFFF {
		t.Errorf("udiv w: %#x", m.X[4])
	}
	if m.X[5] != 0 {
		t.Errorf("sdiv w /0: %#x", m.X[5])
	}
}

func TestW32LoadsStores(t *testing.T) {
	m := run32(t, func(a *Asm) {
		a.MOV64(1, 0x80000) // scratch inside memory image
		a.MOV64(2, 0xDEADBEEF)
		a.Emit(Inst{Op: STR, Size: 4, Rd: 2, Rn: 1})          // str w2, [x1]
		a.Emit(Inst{Op: LDR, Size: 4, Rd: 3, Rn: 1})          // ldr w3 (zero-extend)
		a.Emit(Inst{Op: LDRSW, Size: 4, Rd: 4, Rn: 1})        // ldrsw x4 (sign-extend)
		a.Emit(Inst{Op: STR, Size: 2, Rd: 2, Rn: 1, Imm: 8})  // strh
		a.Emit(Inst{Op: LDR, Size: 2, Rd: 5, Rn: 1, Imm: 8})  // ldrh
		a.Emit(Inst{Op: STR, Size: 1, Rd: 2, Rn: 1, Imm: 12}) // strb
		a.Emit(Inst{Op: LDR, Size: 1, Rd: 6, Rn: 1, Imm: 12}) // ldrb
	})
	if m.X[3] != 0xDEADBEEF {
		t.Errorf("ldr w: %#x", m.X[3])
	}
	if m.X[4] != 0xFFFFFFFFDEADBEEF {
		t.Errorf("ldrsw: %#x", m.X[4])
	}
	if m.X[5] != 0xBEEF {
		t.Errorf("ldrh: %#x", m.X[5])
	}
	if m.X[6] != 0xEF {
		t.Errorf("ldrb: %#x", m.X[6])
	}
}

func TestW32Bitfield(t *testing.T) {
	m := run32(t, func(a *Asm) {
		a.MOV64(1, 0x80000000)
		// asr w2, w1, #4 (sbfm 32-bit)
		a.Emit(Inst{Op: SBFM, Sf: false, Rd: 2, Rn: 1, ImmR: 4, ImmS: 31})
		// lsr w3, w1, #4 (ubfm 32-bit)
		a.Emit(Inst{Op: UBFM, Sf: false, Rd: 3, Rn: 1, ImmR: 4, ImmS: 31})
	})
	if m.X[2] != 0xF8000000 {
		t.Errorf("asr w #4: %#x", m.X[2])
	}
	if m.X[3] != 0x08000000 {
		t.Errorf("lsr w #4: %#x", m.X[3])
	}
}

func TestW32CBZ(t *testing.T) {
	// cbz w: only the low 32 bits decide.
	m := run32(t, func(a *Asm) {
		a.MOV64(1, 0x100000000) // non-zero in 64, zero in 32
		a.MOV64(2, 0)
		a.Emit(Inst{Op: CBZ, Sf: false, Rd: 1, Imm: 8}) // taken: w1 == 0
		a.MOV64(2, 99)                                  // skipped
		a.NOP()
	})
	if m.X[2] != 0 {
		t.Errorf("cbz w did not take: x2=%d", m.X[2])
	}
}

func TestSingle32FP(t *testing.T) {
	m := run32(t, func(a *Asm) {
		a.MOV64(1, 3)
		// scvtf s0, w1 (single precision from 32-bit int)
		a.Emit(Inst{Op: SCVTF, Sf: false, Dbl: false, Rd: 0, Rn: 1})
		// fadd s1, s0, s0 = 6.0f
		a.Emit(Inst{Op: FADD, Dbl: false, Rd: 1, Rn: 0, Rm: 0})
		// fcvt d2, s1
		a.Emit(Inst{Op: FCVTds, Dbl: false, Rd: 2, Rn: 1})
		// fcvtzs x3, d2
		a.FCVTZS(3, 2)
	})
	if m.X[3] != 6 {
		t.Errorf("single-precision chain = %d, want 6", m.X[3])
	}
}
