package a64

import (
	"fmt"
	"math"

	"isacmp/internal/elfio"
	"isacmp/internal/isa"
)

// Asm builds an AArch64 text section with label resolution and emits
// statically linked ELF executables; it is the compiler's back end and
// a tiny assembler for tests and examples.
type Asm struct {
	insts  []Inst
	fixups []fixup
	labels map[string]int
	syms   []isa.Sym
	errs   []error
}

type fixup struct {
	index int
	label string
}

// NewAsm returns an empty assembler.
func NewAsm() *Asm {
	return &Asm{labels: make(map[string]int)}
}

// Len returns the number of instructions emitted so far.
func (a *Asm) Len() int { return len(a.insts) }

// Emit appends a raw instruction.
func (a *Asm) Emit(i Inst) { a.insts = append(a.insts, i) }

// Label defines name at the current position.
func (a *Asm) Label(name string) {
	if _, dup := a.labels[name]; dup {
		a.errs = append(a.errs, fmt.Errorf("a64: duplicate label %q", name))
		return
	}
	a.labels[name] = len(a.insts)
}

// Symbol marks the current position as the start of a named region.
func (a *Asm) Symbol(name string) {
	a.syms = append(a.syms, isa.Sym{Name: name, Index: len(a.insts)})
}

// Integer ALU helpers (64-bit forms; use Emit for 32-bit variants).

// ADD emits add xd, xn, xm.
func (a *Asm) ADD(rd, rn, rm uint8) { a.Emit(Inst{Op: ADDr, Sf: true, Rd: rd, Rn: rn, Rm: rm}) }

// ADDshift emits add xd, xn, xm, <kind> #amt.
func (a *Asm) ADDshift(rd, rn, rm uint8, kind Shift, amt uint8) {
	a.Emit(Inst{Op: ADDr, Sf: true, Rd: rd, Rn: rn, Rm: rm, ShiftKind: kind, ShiftAmt: amt})
}

// SUB emits sub xd, xn, xm.
func (a *Asm) SUB(rd, rn, rm uint8) { a.Emit(Inst{Op: SUBr, Sf: true, Rd: rd, Rn: rn, Rm: rm}) }

// ADDi emits add xd, xn, #imm.
func (a *Asm) ADDi(rd, rn uint8, imm int64) {
	a.Emit(Inst{Op: ADDi, Sf: true, Rd: rd, Rn: rn, Imm: imm})
}

// SUBi emits sub xd, xn, #imm.
func (a *Asm) SUBi(rd, rn uint8, imm int64) {
	a.Emit(Inst{Op: SUBi, Sf: true, Rd: rd, Rn: rn, Imm: imm})
}

// SUBiHi emits sub xd, xn, #imm, lsl #12.
func (a *Asm) SUBiHi(rd, rn uint8, imm int64) {
	a.Emit(Inst{Op: SUBi, Sf: true, Rd: rd, Rn: rn, Imm: imm, ShiftHi: true})
}

// SUBSi emits subs xd, xn, #imm.
func (a *Asm) SUBSi(rd, rn uint8, imm int64) {
	a.Emit(Inst{Op: SUBSi, Sf: true, Rd: rd, Rn: rn, Imm: imm})
}

// CMPi emits cmp xn, #imm (subs xzr, xn, #imm).
func (a *Asm) CMPi(rn uint8, imm int64) {
	a.Emit(Inst{Op: SUBSi, Sf: true, Rd: ZR, Rn: rn, Imm: imm})
}

// CMP emits cmp xn, xm.
func (a *Asm) CMP(rn, rm uint8) {
	a.Emit(Inst{Op: SUBSr, Sf: true, Rd: ZR, Rn: rn, Rm: rm})
}

// MUL emits mul xd, xn, xm (madd with xzr).
func (a *Asm) MUL(rd, rn, rm uint8) {
	a.Emit(Inst{Op: MADD, Sf: true, Rd: rd, Rn: rn, Rm: rm, Ra: ZR})
}

// MADD emits madd xd, xn, xm, xa.
func (a *Asm) MADD(rd, rn, rm, ra uint8) {
	a.Emit(Inst{Op: MADD, Sf: true, Rd: rd, Rn: rn, Rm: rm, Ra: ra})
}

// MSUB emits msub xd, xn, xm, xa.
func (a *Asm) MSUB(rd, rn, rm, ra uint8) {
	a.Emit(Inst{Op: MSUB, Sf: true, Rd: rd, Rn: rn, Rm: rm, Ra: ra})
}

// SDIV emits sdiv xd, xn, xm.
func (a *Asm) SDIV(rd, rn, rm uint8) { a.Emit(Inst{Op: SDIV, Sf: true, Rd: rd, Rn: rn, Rm: rm}) }

// AND emits and xd, xn, xm.
func (a *Asm) AND(rd, rn, rm uint8) { a.Emit(Inst{Op: ANDr, Sf: true, Rd: rd, Rn: rn, Rm: rm}) }

// ORR emits orr xd, xn, xm.
func (a *Asm) ORR(rd, rn, rm uint8) { a.Emit(Inst{Op: ORRr, Sf: true, Rd: rd, Rn: rn, Rm: rm}) }

// ANDi emits and xd, xn, #bimm.
func (a *Asm) ANDi(rd, rn uint8, imm uint64) {
	a.Emit(Inst{Op: ANDi, Sf: true, Rd: rd, Rn: rn, Imm: int64(imm)})
}

// MOV emits mov xd, xm (orr xd, xzr, xm).
func (a *Asm) MOV(rd, rm uint8) { a.Emit(Inst{Op: ORRr, Sf: true, Rd: rd, Rn: ZR, Rm: rm}) }

// LSLi emits lsl xd, xn, #sh (ubfm alias).
func (a *Asm) LSLi(rd, rn uint8, sh uint8) {
	a.Emit(Inst{Op: UBFM, Sf: true, Rd: rd, Rn: rn, ImmR: (64 - sh) & 63, ImmS: 63 - sh})
}

// LSRi emits lsr xd, xn, #sh.
func (a *Asm) LSRi(rd, rn uint8, sh uint8) {
	a.Emit(Inst{Op: UBFM, Sf: true, Rd: rd, Rn: rn, ImmR: sh, ImmS: 63})
}

// ASRi emits asr xd, xn, #sh.
func (a *Asm) ASRi(rd, rn uint8, sh uint8) {
	a.Emit(Inst{Op: SBFM, Sf: true, Rd: rd, Rn: rn, ImmR: sh, ImmS: 63})
}

// CSET emits cset xd, cond (csinc xd, xzr, xzr, !cond).
func (a *Asm) CSET(rd uint8, c Cond) {
	a.Emit(Inst{Op: CSINC, Sf: true, Rd: rd, Rn: ZR, Rm: ZR, Cond: c.Invert()})
}

// CSEL emits csel xd, xn, xm, cond.
func (a *Asm) CSEL(rd, rn, rm uint8, c Cond) {
	a.Emit(Inst{Op: CSEL, Sf: true, Rd: rd, Rn: rn, Rm: rm, Cond: c})
}

// Loads and stores. Rt is the transferred register.

// LDRx emits ldr xt, [xn, #imm].
func (a *Asm) LDRx(rt, rn uint8, imm int64) {
	a.Emit(Inst{Op: LDR, Size: 8, Rd: rt, Rn: rn, Imm: imm})
}

// LDRro emits ldr xt, [xn, xm, lsl #3].
func (a *Asm) LDRro(rt, rn, rm uint8, shift uint8) {
	a.Emit(Inst{Op: LDR, Size: 8, Rd: rt, Rn: rn, Rm: rm, Mode: ModeReg, ShiftAmt: shift})
}

// LDRDro emits ldr dt, [xn, xm, lsl #3].
func (a *Asm) LDRDro(rt, rn, rm uint8, shift uint8) {
	a.Emit(Inst{Op: LDR, Size: 8, FP: true, Rd: rt, Rn: rn, Rm: rm, Mode: ModeReg, ShiftAmt: shift})
}

// STRDro emits str dt, [xn, xm, lsl #3].
func (a *Asm) STRDro(rt, rn, rm uint8, shift uint8) {
	a.Emit(Inst{Op: STR, Size: 8, FP: true, Rd: rt, Rn: rn, Rm: rm, Mode: ModeReg, ShiftAmt: shift})
}

// LDPx emits ldp xt, xt2, [xn, #imm].
func (a *Asm) LDPx(rt, rt2, rn uint8, imm int64) {
	a.Emit(Inst{Op: LDP, Size: 8, Rd: rt, Rt2: rt2, Rn: rn, Imm: imm})
}

// STPx emits stp xt, xt2, [xn, #imm].
func (a *Asm) STPx(rt, rt2, rn uint8, imm int64) {
	a.Emit(Inst{Op: STP, Size: 8, Rd: rt, Rt2: rt2, Rn: rn, Imm: imm})
}

// FP arithmetic (double precision).

// FADD emits fadd dd, dn, dm.
func (a *Asm) FADD(rd, rn, rm uint8) { a.Emit(Inst{Op: FADD, Dbl: true, Rd: rd, Rn: rn, Rm: rm}) }

// FSUB emits fsub dd, dn, dm.
func (a *Asm) FSUB(rd, rn, rm uint8) { a.Emit(Inst{Op: FSUB, Dbl: true, Rd: rd, Rn: rn, Rm: rm}) }

// FMUL emits fmul dd, dn, dm.
func (a *Asm) FMUL(rd, rn, rm uint8) { a.Emit(Inst{Op: FMUL, Dbl: true, Rd: rd, Rn: rn, Rm: rm}) }

// FDIV emits fdiv dd, dn, dm.
func (a *Asm) FDIV(rd, rn, rm uint8) { a.Emit(Inst{Op: FDIV, Dbl: true, Rd: rd, Rn: rn, Rm: rm}) }

// FSQRT emits fsqrt dd, dn.
func (a *Asm) FSQRT(rd, rn uint8) { a.Emit(Inst{Op: FSQRT, Dbl: true, Rd: rd, Rn: rn}) }

// FNEG emits fneg dd, dn.
func (a *Asm) FNEG(rd, rn uint8) { a.Emit(Inst{Op: FNEG, Dbl: true, Rd: rd, Rn: rn}) }

// FABS emits fabs dd, dn.
func (a *Asm) FABS(rd, rn uint8) { a.Emit(Inst{Op: FABS, Dbl: true, Rd: rd, Rn: rn}) }

// FMOV emits fmov dd, dn.
func (a *Asm) FMOV(rd, rn uint8) { a.Emit(Inst{Op: FMOVr, Dbl: true, Rd: rd, Rn: rn}) }

// FMIN emits fmin dd, dn, dm.
func (a *Asm) FMIN(rd, rn, rm uint8) { a.Emit(Inst{Op: FMIN, Dbl: true, Rd: rd, Rn: rn, Rm: rm}) }

// FMAX emits fmax dd, dn, dm.
func (a *Asm) FMAX(rd, rn, rm uint8) { a.Emit(Inst{Op: FMAX, Dbl: true, Rd: rd, Rn: rn, Rm: rm}) }

// FMADD emits fmadd dd, dn, dm, da (dd = dn*dm + da).
func (a *Asm) FMADD(rd, rn, rm, ra uint8) {
	a.Emit(Inst{Op: FMADD, Dbl: true, Rd: rd, Rn: rn, Rm: rm, Ra: ra})
}

// FMSUB emits fmsub dd, dn, dm, da (dd = da - dn*dm).
func (a *Asm) FMSUB(rd, rn, rm, ra uint8) {
	a.Emit(Inst{Op: FMSUB, Dbl: true, Rd: rd, Rn: rn, Rm: rm, Ra: ra})
}

// FCMP emits fcmp dn, dm.
func (a *Asm) FCMP(rn, rm uint8) { a.Emit(Inst{Op: FCMP, Dbl: true, Rn: rn, Rm: rm}) }

// SCVTF emits scvtf dd, xn.
func (a *Asm) SCVTF(rd, rn uint8) { a.Emit(Inst{Op: SCVTF, Sf: true, Dbl: true, Rd: rd, Rn: rn}) }

// FCVTZS emits fcvtzs xd, dn.
func (a *Asm) FCVTZS(rd, rn uint8) { a.Emit(Inst{Op: FCVTZS, Sf: true, Dbl: true, Rd: rd, Rn: rn}) }

// FMOVDX emits fmov dd, xn.
func (a *Asm) FMOVDX(rd, rn uint8) { a.Emit(Inst{Op: FMOVfx, Sf: true, Dbl: true, Rd: rd, Rn: rn}) }

// Control flow.

// B emits an unconditional branch to a label.
func (a *Asm) B(label string) {
	a.fixups = append(a.fixups, fixup{index: len(a.insts), label: label})
	a.Emit(Inst{Op: B})
}

// Bc emits b.cond to a label.
func (a *Asm) Bc(c Cond, label string) {
	a.fixups = append(a.fixups, fixup{index: len(a.insts), label: label})
	a.Emit(Inst{Op: Bcond, Cond: c})
}

// CBZx emits cbz xt, label.
func (a *Asm) CBZx(rt uint8, label string) {
	a.fixups = append(a.fixups, fixup{index: len(a.insts), label: label})
	a.Emit(Inst{Op: CBZ, Sf: true, Rd: rt})
}

// CBNZx emits cbnz xt, label.
func (a *Asm) CBNZx(rt uint8, label string) {
	a.fixups = append(a.fixups, fixup{index: len(a.insts), label: label})
	a.Emit(Inst{Op: CBNZ, Sf: true, Rd: rt})
}

// RET emits ret (x30).
func (a *Asm) RET() { a.Emit(Inst{Op: RET, Rn: 30}) }

// SVC emits svc #0.
func (a *Asm) SVC() { a.Emit(Inst{Op: SVC}) }

// NOP emits nop.
func (a *Asm) NOP() { a.Emit(Inst{Op: NOP}) }

// MOV64 materialises a 64-bit constant with movz/movn + movk, like GNU
// as does for 'ldr xd, =imm' on small constants.
func (a *Asm) MOV64(rd uint8, v int64) {
	u := uint64(v)
	if u == 0 {
		a.Emit(Inst{Op: MOVZ, Sf: true, Rd: rd})
		return
	}
	// Count halfwords that differ from all-zero and all-one patterns.
	zeros, ones := 0, 0
	for hw := 0; hw < 4; hw++ {
		h := u >> (16 * hw) & 0xffff
		if h == 0 {
			zeros++
		}
		if h == 0xffff {
			ones++
		}
	}
	if ones > zeros {
		// Start from movn.
		started := false
		for hw := 0; hw < 4; hw++ {
			h := u >> (16 * hw) & 0xffff
			if !started {
				if h != 0xffff || hw == 3 {
					a.Emit(Inst{Op: MOVN, Sf: true, Rd: rd, Imm: int64(^h & 0xffff), Hw: uint8(hw)})
					started = true
				}
				continue
			}
			if h != 0xffff {
				a.Emit(Inst{Op: MOVK, Sf: true, Rd: rd, Imm: int64(h), Hw: uint8(hw)})
			}
		}
		return
	}
	started := false
	for hw := 0; hw < 4; hw++ {
		h := u >> (16 * hw) & 0xffff
		if h == 0 && !(hw == 3 && !started) {
			continue
		}
		if !started {
			a.Emit(Inst{Op: MOVZ, Sf: true, Rd: rd, Imm: int64(h), Hw: uint8(hw)})
			started = true
		} else {
			a.Emit(Inst{Op: MOVK, Sf: true, Rd: rd, Imm: int64(h), Hw: uint8(hw)})
		}
	}
}

// FMOVimm emits fmov dd, #v when v is representable, or returns false.
func (a *Asm) FMOVimm(rd uint8, v float64) bool {
	if _, ok := encodeFPImm8(v, true); !ok {
		return false
	}
	a.Emit(Inst{Op: FMOVi, Dbl: true, Rd: rd, Imm: int64(math.Float64bits(v))})
	return true
}

// Assemble resolves labels against the text base and encodes.
func (a *Asm) Assemble(base uint64) ([]uint32, error) {
	if len(a.errs) > 0 {
		return nil, a.errs[0]
	}
	insts := make([]Inst, len(a.insts))
	copy(insts, a.insts)
	for _, f := range a.fixups {
		target, ok := a.labels[f.label]
		if !ok {
			return nil, fmt.Errorf("a64: undefined label %q", f.label)
		}
		insts[f.index].Imm = int64(target-f.index) * 4
	}
	words := make([]uint32, len(insts))
	for i, inst := range insts {
		w, err := Encode(inst)
		if err != nil {
			return nil, fmt.Errorf("a64: at %#x: %w", base+uint64(i*4), err)
		}
		words[i] = w
	}
	return words, nil
}

// Program bundles assembled text with a data image.
type Program = isa.Program

// Build assembles the text and produces the ELF file.
func (a *Asm) Build(p Program) (*elfio.File, error) {
	words, err := a.Assemble(p.TextBase)
	if err != nil {
		return nil, err
	}
	return p.Image(isa.AArch64, words, a.syms), nil
}
