package rv64

import "isacmp/internal/isa"

// predecode decodes one text word for isa.Process.Load and fills tmpl,
// the word's event template, with the static half of the record it
// retires.
func predecode(w uint32, tmpl *isa.Event) (Inst, error) {
	inst, err := Decode(w)
	if err == nil {
		template(inst, tmpl)
	}
	return inst, err
}

// xreg maps an integer register field to its flat register: x0 breaks
// dependency chains and is never listed.
func xreg(r uint8) isa.Reg {
	if r == 0 {
		return isa.NoReg
	}
	return isa.IntReg(r)
}

// template fills ev with what i's retirement record holds whatever the
// machine state: the latency group, the register sources and
// destinations in the order the analyses see them, the access sizes,
// Branch, and Taken for a jump. StepN adds the access addresses and a
// conditional branch's Taken.
func template(i Inst, ev *isa.Event) {
	ev.Group = OpGroup(i.Op)
	switch i.Op {
	case LUI, AUIPC:
		ev.AddDst(xreg(i.Rd))
	case JAL:
		ev.Branch, ev.Taken = true, true
		ev.AddDst(xreg(i.Rd))
	case JALR:
		ev.Branch, ev.Taken = true, true
		ev.AddSrc(xreg(i.Rs1))
		ev.AddDst(xreg(i.Rd))
	case BEQ, BNE, BLT, BGE, BLTU, BGEU:
		ev.Branch = true
		ev.AddSrc(xreg(i.Rs1))
		ev.AddSrc(xreg(i.Rs2))

	case LB, LH, LW, LD, LBU, LHU, LWU:
		ev.AddSrc(xreg(i.Rs1))
		ev.LoadSize = accessSize(i.Op)
		ev.AddDst(xreg(i.Rd))
	case SB, SH, SW, SD:
		ev.AddSrc(xreg(i.Rs1))
		ev.AddSrc(xreg(i.Rs2))
		ev.StoreSize = accessSize(i.Op)

	case ADDI, SLTI, SLTIU, XORI, ORI, ANDI, SLLI, SRLI, SRAI,
		ADDIW, SLLIW, SRLIW, SRAIW:
		ev.AddSrc(xreg(i.Rs1))
		ev.AddDst(xreg(i.Rd))
	case ADD, SUB, SLL, SLT, SLTU, XOR, SRL, SRA, OR, AND,
		ADDW, SUBW, SLLW, SRLW, SRAW,
		MUL, MULH, MULHSU, MULHU, DIV, DIVU, REM, REMU,
		MULW, DIVW, DIVUW, REMW, REMUW:
		ev.AddSrc(xreg(i.Rs1))
		ev.AddSrc(xreg(i.Rs2))
		ev.AddDst(xreg(i.Rd))

	case FLW, FLD:
		ev.AddSrc(xreg(i.Rs1))
		ev.LoadSize = accessSize(i.Op)
		ev.AddDst(isa.FPReg(i.Rd))
	case FSW, FSD:
		ev.AddSrc(xreg(i.Rs1))
		ev.AddSrc(isa.FPReg(i.Rs2))
		ev.StoreSize = accessSize(i.Op)

	case FMADDS, FMSUBS, FNMSUBS, FNMADDS, FMADDD, FMSUBD, FNMSUBD, FNMADDD:
		ev.AddSrc(isa.FPReg(i.Rs1))
		ev.AddSrc(isa.FPReg(i.Rs2))
		ev.AddSrc(isa.FPReg(i.Rs3))
		ev.AddDst(isa.FPReg(i.Rd))
	case FADDS, FSUBS, FMULS, FDIVS, FSGNJS, FSGNJNS, FSGNJXS, FMINS, FMAXS,
		FADDD, FSUBD, FMULD, FDIVD, FSGNJD, FSGNJND, FSGNJXD, FMIND, FMAXD:
		ev.AddSrc(isa.FPReg(i.Rs1))
		ev.AddSrc(isa.FPReg(i.Rs2))
		ev.AddDst(isa.FPReg(i.Rd))
	case FSQRTS, FSQRTD, FCVTSD, FCVTDS:
		ev.AddSrc(isa.FPReg(i.Rs1))
		ev.AddDst(isa.FPReg(i.Rd))
	case FEQS, FLTS, FLES, FEQD, FLTD, FLED:
		ev.AddSrc(isa.FPReg(i.Rs1))
		ev.AddSrc(isa.FPReg(i.Rs2))
		ev.AddDst(xreg(i.Rd))
	case FCVTWS, FCVTWUS, FCVTLS, FCVTLUS, FCVTWD, FCVTWUD, FCVTLD, FCVTLUD,
		FMVXW, FMVXD, FCLASSS, FCLASSD:
		ev.AddSrc(isa.FPReg(i.Rs1))
		ev.AddDst(xreg(i.Rd))
	case FCVTSW, FCVTSWU, FCVTSL, FCVTSLU, FCVTDW, FCVTDWU, FCVTDL, FCVTDLU,
		FMVWX, FMVDX:
		ev.AddSrc(xreg(i.Rs1))
		ev.AddDst(isa.FPReg(i.Rd))

	case LRW, LRD:
		ev.AddSrc(xreg(i.Rs1))
		ev.LoadSize = accessSize(i.Op)
		ev.AddDst(xreg(i.Rd))
	case SCW, SCD:
		ev.AddSrc(xreg(i.Rs1))
		ev.AddSrc(xreg(i.Rs2))
		ev.StoreSize = accessSize(i.Op)
		ev.AddDst(xreg(i.Rd))
	case AMOSWAPW, AMOADDW, AMOXORW, AMOANDW, AMOORW, AMOMINW, AMOMAXW, AMOMINUW, AMOMAXUW,
		AMOSWAPD, AMOADDD, AMOXORD, AMOANDD, AMOORD, AMOMIND, AMOMAXD, AMOMINUD, AMOMAXUD:
		ev.AddSrc(xreg(i.Rs1))
		ev.AddSrc(xreg(i.Rs2))
		ev.LoadSize = accessSize(i.Op)
		ev.StoreSize = ev.LoadSize
		ev.AddDst(xreg(i.Rd))
	}
}

// accessSize returns the width in bytes of a load, store or AMO: the
// low two bits of its funct3 are log2 of the width throughout RV64G.
func accessSize(op Op) uint8 { return 1 << (specs[op].f3 & 3) }
