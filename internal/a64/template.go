package a64

import "isacmp/internal/isa"

// predecode decodes one text word for isa.Process.Load and fills tmpl,
// the word's event template, with the static half of the record it
// retires.
func predecode(w uint32, tmpl *isa.Event) (Inst, error) {
	inst, err := Decode(w)
	if err == nil {
		template(&inst, tmpl)
	}
	return inst, err
}

// xreg maps an integer register field in a zero-register context to
// its flat register: XZR breaks dependency chains and is never listed.
// Where 31 is SP (the base of an access, the immediate add and
// subtract forms) the field is a real dependency and maps through
// isa.IntReg.
func xreg(r uint8) isa.Reg {
	if r == ZR {
		return isa.NoReg
	}
	return isa.IntReg(r)
}

// template fills ev with what i's retirement record holds whatever the
// machine state: the latency group, the register sources and
// destinations in the order the analyses see them (the flags after the
// register destination, except for ANDS, and a base writeback before
// the loaded register), the access sizes, Branch, and Taken for an
// unconditional branch. StepN adds the access addresses and a
// conditional branch's Taken.
func template(i *Inst, ev *isa.Event) {
	ev.Group = OpGroup(i)
	switch i.Op {
	case ADDi, SUBi:
		ev.AddSrc(isa.IntReg(i.Rn))
		ev.AddDst(isa.IntReg(i.Rd))
	case ADDSi, SUBSi:
		ev.AddSrc(isa.IntReg(i.Rn))
		ev.AddDst(xreg(i.Rd))
		ev.AddDst(isa.RegNZCV)
	case ANDi, ORRi, EORi, SBFM, UBFM:
		ev.AddSrc(xreg(i.Rn))
		ev.AddDst(xreg(i.Rd))
	case ANDSi:
		ev.AddSrc(xreg(i.Rn))
		ev.AddDst(isa.RegNZCV)
		ev.AddDst(xreg(i.Rd))
	case MOVZ, MOVN:
		ev.AddDst(xreg(i.Rd))
	case MOVK: // movk merges into the destination
		ev.AddSrc(xreg(i.Rd))
		ev.AddDst(xreg(i.Rd))
	case ADDr, SUBr, ANDr, ORRr, EORr, BICr, SDIV, UDIV, LSLV, LSRV, ASRV:
		ev.AddSrc(xreg(i.Rn))
		ev.AddSrc(xreg(i.Rm))
		ev.AddDst(xreg(i.Rd))
	case ADDSr, SUBSr:
		ev.AddSrc(xreg(i.Rn))
		ev.AddSrc(xreg(i.Rm))
		ev.AddDst(xreg(i.Rd))
		ev.AddDst(isa.RegNZCV)
	case ANDSr:
		ev.AddSrc(xreg(i.Rn))
		ev.AddSrc(xreg(i.Rm))
		ev.AddDst(isa.RegNZCV)
		ev.AddDst(xreg(i.Rd))
	case MADD, MSUB:
		ev.AddSrc(xreg(i.Rn))
		ev.AddSrc(xreg(i.Rm))
		ev.AddSrc(xreg(i.Ra))
		ev.AddDst(xreg(i.Rd))
	case CSEL, CSINC, CSINV, CSNEG:
		ev.AddSrc(xreg(i.Rn))
		ev.AddSrc(xreg(i.Rm))
		ev.AddSrc(isa.RegNZCV)
		ev.AddDst(xreg(i.Rd))

	case B:
		ev.Branch, ev.Taken = true, true
	case BL:
		ev.Branch, ev.Taken = true, true
		ev.AddDst(isa.IntReg(30))
	case Bcond:
		ev.Branch = true
		ev.AddSrc(isa.RegNZCV)
	case CBZ, CBNZ:
		ev.Branch = true
		ev.AddSrc(xreg(i.Rd))
	case BR, RET:
		ev.Branch, ev.Taken = true, true
		ev.AddSrc(xreg(i.Rn))
	case BLR:
		ev.Branch, ev.Taken = true, true
		ev.AddSrc(xreg(i.Rn))
		ev.AddDst(isa.IntReg(30))

	case LDR, STR, LDRSW, LDP, STP:
		accessTemplate(i, ev)

	case FADD, FSUB, FMUL, FDIV, FNMUL, FMAX, FMIN:
		ev.AddSrc(isa.FPReg(i.Rn))
		ev.AddSrc(isa.FPReg(i.Rm))
		ev.AddDst(isa.FPReg(i.Rd))
	case FMOVr, FABS, FNEG, FSQRT, FCVTsd, FCVTds:
		ev.AddSrc(isa.FPReg(i.Rn))
		ev.AddDst(isa.FPReg(i.Rd))
	case FCMP, FCMPE:
		ev.AddSrc(isa.FPReg(i.Rn))
		ev.AddSrc(isa.FPReg(i.Rm))
		ev.AddDst(isa.RegNZCV)
	case FCSEL:
		ev.AddSrc(isa.FPReg(i.Rn))
		ev.AddSrc(isa.FPReg(i.Rm))
		ev.AddSrc(isa.RegNZCV)
		ev.AddDst(isa.FPReg(i.Rd))
	case SCVTF, UCVTF, FMOVfx:
		ev.AddSrc(xreg(i.Rn))
		ev.AddDst(isa.FPReg(i.Rd))
	case FCVTZS, FCVTZU, FMOVxf:
		ev.AddSrc(isa.FPReg(i.Rn))
		ev.AddDst(xreg(i.Rd))
	case FMOVi:
		ev.AddDst(isa.FPReg(i.Rd))
	case FMADD, FMSUB, FNMADD, FNMSUB:
		ev.AddSrc(isa.FPReg(i.Rn))
		ev.AddSrc(isa.FPReg(i.Rm))
		ev.AddSrc(isa.FPReg(i.Ra))
		ev.AddDst(isa.FPReg(i.Rd))
	}
}

// accessTemplate fills the template of a load or store: the SP-context
// base, then its writeback under pre- and post-indexing, the index
// register of a register offset, and the transferred registers; a pair
// reports its two registers' whole span as one access.
func accessTemplate(i *Inst, ev *isa.Event) {
	ev.AddSrc(isa.IntReg(i.Rn))
	switch i.Mode {
	case ModePost, ModePre:
		ev.AddDst(isa.IntReg(i.Rn))
	case ModeReg:
		ev.AddSrc(xreg(i.Rm))
	}
	reg := xreg
	if i.FP {
		reg = isa.FPReg
	}
	pair := i.Op == LDP || i.Op == STP
	size := i.Size
	if pair {
		size *= 2
	}
	if i.Op == STR || i.Op == STP {
		ev.StoreSize = size
		ev.AddSrc(reg(i.Rd))
		if pair {
			ev.AddSrc(reg(i.Rt2))
		}
		return
	}
	ev.LoadSize = size
	ev.AddDst(reg(i.Rd))
	if pair {
		ev.AddDst(reg(i.Rt2))
	}
}
