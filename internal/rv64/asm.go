package rv64

import (
	"fmt"

	"isacmp/internal/elfio"
	"isacmp/internal/isa"
)

// Asm builds an RV64G text section instruction by instruction,
// resolving labels to branch offsets, and emits a statically linked
// ELF executable. It is the back end the compiler targets, and doubles
// as a tiny assembler for tests and examples.
type Asm struct {
	insts  []Inst
	fixups []fixup
	labels map[string]int // label name -> instruction index
	syms   []isa.Sym
	errs   []error
}

type fixupKind uint8

const (
	fixBranch fixupKind = iota // B-format PC-relative
	fixJAL                     // J-format PC-relative
)

type fixup struct {
	index int
	label string
	kind  fixupKind
}

// NewAsm returns an empty assembler.
func NewAsm() *Asm {
	return &Asm{labels: make(map[string]int)}
}

// Len returns the number of instructions emitted so far.
func (a *Asm) Len() int { return len(a.insts) }

// Emit appends a raw instruction.
func (a *Asm) Emit(i Inst) { a.insts = append(a.insts, i) }

// Label defines name at the current position. Branches may reference
// labels before or after their definition.
func (a *Asm) Label(name string) {
	if _, dup := a.labels[name]; dup {
		a.errs = append(a.errs, fmt.Errorf("rv64: duplicate label %q", name))
		return
	}
	a.labels[name] = len(a.insts)
}

// Symbol marks the current position as the start of a named region
// (e.g. a benchmark kernel); the region extends to the next symbol or
// the end of text. Symbols become ELF symbols.
func (a *Asm) Symbol(name string) {
	a.syms = append(a.syms, isa.Sym{Name: name, Index: len(a.insts)})
}

// Integer register-register operations.

// ADD emits add rd, rs1, rs2.
func (a *Asm) ADD(rd, rs1, rs2 uint8) { a.Emit(Inst{Op: ADD, Rd: rd, Rs1: rs1, Rs2: rs2}) }

// SUB emits sub rd, rs1, rs2.
func (a *Asm) SUB(rd, rs1, rs2 uint8) { a.Emit(Inst{Op: SUB, Rd: rd, Rs1: rs1, Rs2: rs2}) }

// MUL emits mul rd, rs1, rs2.
func (a *Asm) MUL(rd, rs1, rs2 uint8) { a.Emit(Inst{Op: MUL, Rd: rd, Rs1: rs1, Rs2: rs2}) }

// DIV emits div rd, rs1, rs2.
func (a *Asm) DIV(rd, rs1, rs2 uint8) { a.Emit(Inst{Op: DIV, Rd: rd, Rs1: rs1, Rs2: rs2}) }

// REM emits rem rd, rs1, rs2.
func (a *Asm) REM(rd, rs1, rs2 uint8) { a.Emit(Inst{Op: REM, Rd: rd, Rs1: rs1, Rs2: rs2}) }

// AND emits and rd, rs1, rs2.
func (a *Asm) AND(rd, rs1, rs2 uint8) { a.Emit(Inst{Op: AND, Rd: rd, Rs1: rs1, Rs2: rs2}) }

// OR emits or rd, rs1, rs2.
func (a *Asm) OR(rd, rs1, rs2 uint8) { a.Emit(Inst{Op: OR, Rd: rd, Rs1: rs1, Rs2: rs2}) }

// XOR emits xor rd, rs1, rs2.
func (a *Asm) XOR(rd, rs1, rs2 uint8) { a.Emit(Inst{Op: XOR, Rd: rd, Rs1: rs1, Rs2: rs2}) }

// SLT emits slt rd, rs1, rs2.
func (a *Asm) SLT(rd, rs1, rs2 uint8) { a.Emit(Inst{Op: SLT, Rd: rd, Rs1: rs1, Rs2: rs2}) }

// SLTU emits sltu rd, rs1, rs2.
func (a *Asm) SLTU(rd, rs1, rs2 uint8) { a.Emit(Inst{Op: SLTU, Rd: rd, Rs1: rs1, Rs2: rs2}) }

// SLL emits sll rd, rs1, rs2.
func (a *Asm) SLL(rd, rs1, rs2 uint8) { a.Emit(Inst{Op: SLL, Rd: rd, Rs1: rs1, Rs2: rs2}) }

// SRL emits srl rd, rs1, rs2.
func (a *Asm) SRL(rd, rs1, rs2 uint8) { a.Emit(Inst{Op: SRL, Rd: rd, Rs1: rs1, Rs2: rs2}) }

// SRA emits sra rd, rs1, rs2.
func (a *Asm) SRA(rd, rs1, rs2 uint8) { a.Emit(Inst{Op: SRA, Rd: rd, Rs1: rs1, Rs2: rs2}) }

// Immediate forms.

// ADDI emits addi rd, rs1, imm.
func (a *Asm) ADDI(rd, rs1 uint8, imm int64) { a.Emit(Inst{Op: ADDI, Rd: rd, Rs1: rs1, Imm: imm}) }

// ANDI emits andi rd, rs1, imm.
func (a *Asm) ANDI(rd, rs1 uint8, imm int64) { a.Emit(Inst{Op: ANDI, Rd: rd, Rs1: rs1, Imm: imm}) }

// ORI emits ori rd, rs1, imm.
func (a *Asm) ORI(rd, rs1 uint8, imm int64) { a.Emit(Inst{Op: ORI, Rd: rd, Rs1: rs1, Imm: imm}) }

// XORI emits xori rd, rs1, imm.
func (a *Asm) XORI(rd, rs1 uint8, imm int64) { a.Emit(Inst{Op: XORI, Rd: rd, Rs1: rs1, Imm: imm}) }

// SLLI emits slli rd, rs1, shamt.
func (a *Asm) SLLI(rd, rs1 uint8, sh int64) { a.Emit(Inst{Op: SLLI, Rd: rd, Rs1: rs1, Imm: sh}) }

// SRLI emits srli rd, rs1, shamt.
func (a *Asm) SRLI(rd, rs1 uint8, sh int64) { a.Emit(Inst{Op: SRLI, Rd: rd, Rs1: rs1, Imm: sh}) }

// SRAI emits srai rd, rs1, shamt.
func (a *Asm) SRAI(rd, rs1 uint8, sh int64) { a.Emit(Inst{Op: SRAI, Rd: rd, Rs1: rs1, Imm: sh}) }

// SLTIU emits sltiu rd, rs1, imm.
func (a *Asm) SLTIU(rd, rs1 uint8, imm int64) { a.Emit(Inst{Op: SLTIU, Rd: rd, Rs1: rs1, Imm: imm}) }

// MV emits the canonical register move (addi rd, rs, 0).
func (a *Asm) MV(rd, rs uint8) { a.ADDI(rd, rs, 0) }

// NOP emits addi x0, x0, 0.
func (a *Asm) NOP() { a.ADDI(0, 0, 0) }

// Loads and stores.

// LD emits ld rd, imm(rs1).
func (a *Asm) LD(rd, rs1 uint8, imm int64) { a.Emit(Inst{Op: LD, Rd: rd, Rs1: rs1, Imm: imm}) }

// LW emits lw rd, imm(rs1).
func (a *Asm) LW(rd, rs1 uint8, imm int64) { a.Emit(Inst{Op: LW, Rd: rd, Rs1: rs1, Imm: imm}) }

// SD emits sd rs2, imm(rs1).
func (a *Asm) SD(rs2, rs1 uint8, imm int64) { a.Emit(Inst{Op: SD, Rs1: rs1, Rs2: rs2, Imm: imm}) }

// SW emits sw rs2, imm(rs1).
func (a *Asm) SW(rs2, rs1 uint8, imm int64) { a.Emit(Inst{Op: SW, Rs1: rs1, Rs2: rs2, Imm: imm}) }

// FLD emits fld frd, imm(rs1).
func (a *Asm) FLD(frd, rs1 uint8, imm int64) { a.Emit(Inst{Op: FLD, Rd: frd, Rs1: rs1, Imm: imm}) }

// FSD emits fsd frs2, imm(rs1).
func (a *Asm) FSD(frs2, rs1 uint8, imm int64) {
	a.Emit(Inst{Op: FSD, Rs1: rs1, Rs2: frs2, Imm: imm})
}

// Double-precision arithmetic.

// FADDD emits fadd.d frd, frs1, frs2.
func (a *Asm) FADDD(frd, frs1, frs2 uint8) { a.Emit(Inst{Op: FADDD, Rd: frd, Rs1: frs1, Rs2: frs2}) }

// FSUBD emits fsub.d frd, frs1, frs2.
func (a *Asm) FSUBD(frd, frs1, frs2 uint8) { a.Emit(Inst{Op: FSUBD, Rd: frd, Rs1: frs1, Rs2: frs2}) }

// FMULD emits fmul.d frd, frs1, frs2.
func (a *Asm) FMULD(frd, frs1, frs2 uint8) { a.Emit(Inst{Op: FMULD, Rd: frd, Rs1: frs1, Rs2: frs2}) }

// FDIVD emits fdiv.d frd, frs1, frs2.
func (a *Asm) FDIVD(frd, frs1, frs2 uint8) { a.Emit(Inst{Op: FDIVD, Rd: frd, Rs1: frs1, Rs2: frs2}) }

// FSQRTD emits fsqrt.d frd, frs1.
func (a *Asm) FSQRTD(frd, frs1 uint8) { a.Emit(Inst{Op: FSQRTD, Rd: frd, Rs1: frs1}) }

// FMADDD emits fmadd.d frd, frs1, frs2, frs3 (frd = frs1*frs2 + frs3).
func (a *Asm) FMADDD(frd, frs1, frs2, frs3 uint8) {
	a.Emit(Inst{Op: FMADDD, Rd: frd, Rs1: frs1, Rs2: frs2, Rs3: frs3})
}

// FMSUBD emits fmsub.d frd, frs1, frs2, frs3 (frd = frs1*frs2 - frs3).
func (a *Asm) FMSUBD(frd, frs1, frs2, frs3 uint8) {
	a.Emit(Inst{Op: FMSUBD, Rd: frd, Rs1: frs1, Rs2: frs2, Rs3: frs3})
}

// FMVD emits the canonical FP move fsgnj.d frd, frs, frs.
func (a *Asm) FMVD(frd, frs uint8) { a.Emit(Inst{Op: FSGNJD, Rd: frd, Rs1: frs, Rs2: frs}) }

// FNEGD emits fsgnjn.d frd, frs, frs.
func (a *Asm) FNEGD(frd, frs uint8) { a.Emit(Inst{Op: FSGNJND, Rd: frd, Rs1: frs, Rs2: frs}) }

// FABSD emits fsgnjx.d frd, frs, frs.
func (a *Asm) FABSD(frd, frs uint8) { a.Emit(Inst{Op: FSGNJXD, Rd: frd, Rs1: frs, Rs2: frs}) }

// FMIND emits fmin.d frd, frs1, frs2.
func (a *Asm) FMIND(frd, frs1, frs2 uint8) { a.Emit(Inst{Op: FMIND, Rd: frd, Rs1: frs1, Rs2: frs2}) }

// FMAXD emits fmax.d frd, frs1, frs2.
func (a *Asm) FMAXD(frd, frs1, frs2 uint8) { a.Emit(Inst{Op: FMAXD, Rd: frd, Rs1: frs1, Rs2: frs2}) }

// FCVTDL emits fcvt.d.l frd, rs1 (signed 64-bit int to double).
func (a *Asm) FCVTDL(frd, rs1 uint8) { a.Emit(Inst{Op: FCVTDL, Rd: frd, Rs1: rs1}) }

// FCVTLD emits fcvt.l.d rd, frs1, rtz (double to signed 64-bit int,
// truncating, as C casts compile to).
func (a *Asm) FCVTLD(rd, frs1 uint8) { a.Emit(Inst{Op: FCVTLD, Rd: rd, Rs1: frs1, RM: 1}) }

// FMVDX emits fmv.d.x frd, rs1 (move raw bits).
func (a *Asm) FMVDX(frd, rs1 uint8) { a.Emit(Inst{Op: FMVDX, Rd: frd, Rs1: rs1}) }

// FMVXD emits fmv.x.d rd, frs1.
func (a *Asm) FMVXD(rd, frs1 uint8) { a.Emit(Inst{Op: FMVXD, Rd: rd, Rs1: frs1}) }

// FLTD emits flt.d rd, frs1, frs2.
func (a *Asm) FLTD(rd, frs1, frs2 uint8) { a.Emit(Inst{Op: FLTD, Rd: rd, Rs1: frs1, Rs2: frs2}) }

// FLED emits fle.d rd, frs1, frs2.
func (a *Asm) FLED(rd, frs1, frs2 uint8) { a.Emit(Inst{Op: FLED, Rd: rd, Rs1: frs1, Rs2: frs2}) }

// FEQD emits feq.d rd, frs1, frs2.
func (a *Asm) FEQD(rd, frs1, frs2 uint8) { a.Emit(Inst{Op: FEQD, Rd: rd, Rs1: frs1, Rs2: frs2}) }

// Control flow. Branch targets are labels.

func (a *Asm) branch(op Op, rs1, rs2 uint8, label string) {
	a.fixups = append(a.fixups, fixup{index: len(a.insts), label: label, kind: fixBranch})
	a.Emit(Inst{Op: op, Rs1: rs1, Rs2: rs2})
}

// BEQ emits beq rs1, rs2, label.
func (a *Asm) BEQ(rs1, rs2 uint8, label string) { a.branch(BEQ, rs1, rs2, label) }

// BNE emits bne rs1, rs2, label.
func (a *Asm) BNE(rs1, rs2 uint8, label string) { a.branch(BNE, rs1, rs2, label) }

// BLT emits blt rs1, rs2, label.
func (a *Asm) BLT(rs1, rs2 uint8, label string) { a.branch(BLT, rs1, rs2, label) }

// BGE emits bge rs1, rs2, label.
func (a *Asm) BGE(rs1, rs2 uint8, label string) { a.branch(BGE, rs1, rs2, label) }

// BLTU emits bltu rs1, rs2, label.
func (a *Asm) BLTU(rs1, rs2 uint8, label string) { a.branch(BLTU, rs1, rs2, label) }

// BGEU emits bgeu rs1, rs2, label.
func (a *Asm) BGEU(rs1, rs2 uint8, label string) { a.branch(BGEU, rs1, rs2, label) }

// J emits an unconditional jump (jal x0, label).
func (a *Asm) J(label string) {
	a.fixups = append(a.fixups, fixup{index: len(a.insts), label: label, kind: fixJAL})
	a.Emit(Inst{Op: JAL, Rd: 0})
}

// RET emits jalr x0, 0(ra).
func (a *Asm) RET() { a.Emit(Inst{Op: JALR, Rd: 0, Rs1: 1}) }

// ECALL emits the system-call instruction.
func (a *Asm) ECALL() { a.Emit(Inst{Op: ECALL}) }

// LI loads a 64-bit constant into rd using the standard lui/addiw/
// slli/addi expansion. The number of instructions emitted depends on
// the constant.
func (a *Asm) LI(rd uint8, v int64) {
	if v >= -2048 && v < 2048 {
		a.ADDI(rd, 0, v)
		return
	}
	if v == int64(int32(v)) {
		// lui + addiw. lui sets bits [31:12]; addiw adds the sign-
		// extended low 12 bits, so round the upper part to compensate.
		lo := v << 52 >> 52 // sign-extended low 12 bits
		hi := (v - lo) & 0xffffffff
		if hi == 0 { // value like 0x800..0xfff with negative lo
			a.ADDI(rd, 0, lo) // unreachable for |v|>=2048, kept for safety
			return
		}
		// lui immediate is the sign-extended hi value.
		a.Emit(Inst{Op: LUI, Rd: rd, Imm: int64(int32(uint32(hi)))})
		if lo != 0 {
			a.Emit(Inst{Op: ADDIW, Rd: rd, Rs1: rd, Imm: lo})
		}
		return
	}
	// General 64-bit: build upper 32 bits then shift in the lower ones
	// 12 bits at a time (the classic GAS expansion).
	lo12 := v << 52 >> 52
	rest := v - lo12
	shift := 0
	for rest != 0 && rest&0xfff == 0 {
		rest >>= 12
		shift += 12
	}
	if rest == int64(int32(rest)) {
		a.LI(rd, rest)
	} else {
		a.LI(rd, rest) // recursion terminates: rest loses ≥12 bits each round
	}
	if shift > 0 {
		a.SLLI(rd, rd, int64(shift))
	}
	if lo12 != 0 {
		a.ADDI(rd, rd, lo12)
	}
}

// invertBranch returns the opposite conditional branch.
func invertBranch(op Op) Op {
	switch op {
	case BEQ:
		return BNE
	case BNE:
		return BEQ
	case BLT:
		return BGE
	case BGE:
		return BLT
	case BLTU:
		return BGEU
	case BGEU:
		return BLTU
	}
	return op
}

// Assemble resolves labels against the given text base address and
// returns the encoded words. Conditional branches whose targets fall
// outside the ±4 KiB B-format range are relaxed into an inverted
// branch over an unconditional jump, as GNU as does.
func (a *Asm) Assemble(base uint64) ([]uint32, error) {
	words, _, err := a.assemble(base)
	return words, err
}

// assemble does the work of Assemble and additionally returns the
// Symbol marks at their post-relaxation instruction indices.
func (a *Asm) assemble(base uint64) ([]uint32, []isa.Sym, error) {
	if len(a.errs) > 0 {
		return nil, nil, a.errs[0]
	}
	insts := make([]Inst, len(a.insts))
	copy(insts, a.insts)
	fixups := make([]fixup, len(a.fixups))
	copy(fixups, a.fixups)
	labels := make(map[string]int, len(a.labels))
	for k, v := range a.labels {
		labels[k] = v
	}
	syms := append([]isa.Sym(nil), a.syms...)

	// Iteratively relax out-of-range conditional branches. Each pass
	// expands at most one branch into two instructions, shifting all
	// later labels and fixups; iteration stops when everything fits.
	for pass := 0; pass < len(insts)+8; pass++ {
		relaxed := false
		for fi := range fixups {
			f := &fixups[fi]
			target, ok := labels[f.label]
			if !ok {
				return nil, nil, fmt.Errorf("rv64: undefined label %q", f.label)
			}
			off := int64(target-f.index) * 4
			if f.kind != fixBranch || (off >= -4096 && off < 4096) {
				continue
			}
			// Relax: invert the condition to skip over a jal.
			br := insts[f.index]
			br.Op = invertBranch(br.Op)
			br.Imm = 8
			jal := Inst{Op: JAL, Rd: 0}
			insts = append(insts[:f.index+1], append([]Inst{jal}, insts[f.index+1:]...)...)
			insts[f.index] = br
			at := f.index
			for li, v := range labels {
				if v > at {
					labels[li] = v + 1
				}
			}
			for fj := range fixups {
				if fixups[fj].index > at {
					fixups[fj].index++
				}
			}
			for si := range syms {
				if syms[si].Index > at {
					syms[si].Index++
				}
			}
			// The original fixup now resolves the jal.
			f.index = at + 1
			f.kind = fixJAL
			relaxed = true
			break
		}
		if !relaxed {
			break
		}
	}

	for _, f := range fixups {
		target := labels[f.label]
		insts[f.index].Imm = int64(target-f.index) * 4
	}
	words := make([]uint32, len(insts))
	for i, inst := range insts {
		w, err := Encode(inst)
		if err != nil {
			return nil, nil, fmt.Errorf("rv64: at %#x: %w", base+uint64(i*4), err)
		}
		words[i] = w
	}
	return words, syms, nil
}

// Program bundles assembled text with a data image into a runnable ELF
// file.
type Program = isa.Program

// Build assembles the text at p.TextBase and produces the ELF file,
// including one symbol per Symbol call.
func (a *Asm) Build(p Program) (*elfio.File, error) {
	words, syms, err := a.assemble(p.TextBase)
	if err != nil {
		return nil, err
	}
	return p.Image(isa.RV64, words, syms), nil
}
