package a64

import (
	"fmt"
	"math"

	"isacmp/internal/isa"
)

// Step retires one instruction, updating architectural state and
// filling ev with the execution record: StepN over one event. It
// returns done=true once the program has exited.
func (m *Machine) Step(ev *isa.Event) (done bool, err error) {
	_, done, err = m.StepN(isa.One(ev))
	return done, err
}

// StepN retires up to len(evs) instructions, filling evs[:n] in
// retirement order: the machine's one fetch–execute loop, which
// simeng.EmulationCore.Run drives. done and err describe the machine
// state after the n filled events; on an error the first n events are
// still valid and must be delivered before the error is surfaced.
//
// The PC stays in a local for the whole batch and is stored to PCReg,
// never reloaded, at every instruction boundary, so a fault or a panic
// reports the PC of the instruction in flight; Retired advances once
// per batch, at every return.
func (m *Machine) StepN(evs []isa.Event) (n int, done bool, err error) {
	if m.Halted {
		return 0, true, nil
	}
	pc := m.PCReg
	for ; n < len(evs); n++ {
		m.PCReg = pc
		idx := (pc - m.TextBase) / 4
		if pc < m.TextBase || idx >= uint64(len(m.Prog)) || pc%4 != 0 {
			return m.EndBatch(n, false, m.FetchFault())
		}
		i := &m.Prog[idx]
		if i.Op == OpInvalid {
			// A text word that failed tolerant predecode; it faults
			// only here, when execution actually reaches it.
			return m.EndBatch(n, false, m.FetchFault())
		}

		ev := &evs[n]
		*ev = m.Tmpl[idx]

		nextPC := pc + 4

		switch i.Op {
		case ADDi, SUBi:
			// SP-context for both Rn and Rd (this form moves to/from SP).
			imm := uint64(i.Imm)
			if i.ShiftHi {
				imm <<= 12
			}
			v := m.X[i.Rn] + imm
			if i.Op == SUBi {
				v = m.X[i.Rn] - imm
			}
			if !i.Sf {
				v = uint64(uint32(v))
			}
			m.X[i.Rd] = v

		case ADDSi, SUBSi:
			imm := uint64(i.Imm)
			if i.ShiftHi {
				imm <<= 12
			}
			a := m.X[i.Rn]
			var v uint64
			if i.Op == ADDSi {
				v = m.addWithFlags(a, imm, 0, i.Sf)
			} else {
				v = m.addWithFlags(a, ^imm, 1, i.Sf)
			}
			m.setX(i.Rd, v, i.Sf)

		case ANDi, ORRi, EORi, ANDSi:
			a := m.xr(i.Rn)
			b := uint64(i.Imm)
			var v uint64
			switch i.Op {
			case ANDi, ANDSi:
				v = a & b
			case ORRi:
				v = a | b
			case EORi:
				v = a ^ b
			}
			if !i.Sf {
				v = uint64(uint32(v))
			}
			if i.Op == ANDSi {
				m.logicFlags(v, i.Sf)
			}
			m.setX(i.Rd, v, i.Sf)

		case MOVZ:
			m.setX(i.Rd, uint64(i.Imm)<<(16*uint(i.Hw)), i.Sf)
		case MOVN:
			m.setX(i.Rd, ^(uint64(i.Imm) << (16 * uint(i.Hw))), i.Sf)
		case MOVK:
			sh := 16 * uint(i.Hw)
			v := m.xr(i.Rd)&^(0xffff<<sh) | uint64(i.Imm)<<sh
			m.setX(i.Rd, v, i.Sf)

		case SBFM, UBFM:
			regsize := uint(32)
			if i.Sf {
				regsize = 64
			}
			m.setX(i.Rd, bfm(m.xr(i.Rn), i.ImmR, i.ImmS, regsize, i.Op == SBFM), i.Sf)

		case ADDr, SUBr:
			b := shiftedOperand(m.xr(i.Rm), i.ShiftKind, i.ShiftAmt, i.Sf)
			v := m.xr(i.Rn) + b
			if i.Op == SUBr {
				v = m.xr(i.Rn) - b
			}
			m.setX(i.Rd, v, i.Sf)

		case ADDSr, SUBSr:
			b := shiftedOperand(m.xr(i.Rm), i.ShiftKind, i.ShiftAmt, i.Sf)
			var v uint64
			if i.Op == ADDSr {
				v = m.addWithFlags(m.xr(i.Rn), b, 0, i.Sf)
			} else {
				v = m.addWithFlags(m.xr(i.Rn), ^b, 1, i.Sf)
			}
			m.setX(i.Rd, v, i.Sf)

		case ANDr, ORRr, EORr, ANDSr, BICr:
			b := shiftedOperand(m.xr(i.Rm), i.ShiftKind, i.ShiftAmt, i.Sf)
			a := m.xr(i.Rn)
			var v uint64
			switch i.Op {
			case ANDr, ANDSr:
				v = a & b
			case ORRr:
				v = a | b
			case EORr:
				v = a ^ b
			case BICr:
				v = a &^ b
			}
			if !i.Sf {
				v = uint64(uint32(v))
			}
			if i.Op == ANDSr {
				m.logicFlags(v, i.Sf)
			}
			m.setX(i.Rd, v, i.Sf)

		case MADD, MSUB:
			p := m.xr(i.Rn) * m.xr(i.Rm)
			var v uint64
			if i.Op == MADD {
				v = m.xr(i.Ra) + p
			} else {
				v = m.xr(i.Ra) - p
			}
			m.setX(i.Rd, v, i.Sf)

		case SDIV, UDIV:
			m.setX(i.Rd, divide(i.Op == SDIV, m.xr(i.Rn), m.xr(i.Rm), i.Sf), i.Sf)

		case LSLV, LSRV, ASRV:
			bits := uint64(63)
			if !i.Sf {
				bits = 31
			}
			amt := uint(m.xr(i.Rm) & bits)
			var v uint64
			switch i.Op {
			case LSLV:
				v = m.xr(i.Rn) << amt
			case LSRV:
				a := m.xr(i.Rn)
				if !i.Sf {
					a = uint64(uint32(a))
				}
				v = a >> amt
			case ASRV:
				if i.Sf {
					v = uint64(int64(m.xr(i.Rn)) >> amt)
				} else {
					v = uint64(uint32(int32(uint32(m.xr(i.Rn))) >> amt))
				}
			}
			m.setX(i.Rd, v, i.Sf)

		case CSEL, CSINC, CSINV, CSNEG:
			var v uint64
			if m.condHolds(i.Cond) {
				v = m.xr(i.Rn)
			} else {
				b := m.xr(i.Rm)
				switch i.Op {
				case CSEL:
					v = b
				case CSINC:
					v = b + 1
				case CSINV:
					v = ^b
				case CSNEG:
					v = -b
				}
			}
			m.setX(i.Rd, v, i.Sf)

		case B:
			nextPC = pc + uint64(i.Imm)
		case BL:
			m.X[30] = pc + 4
			nextPC = pc + uint64(i.Imm)
		case Bcond:
			if m.condHolds(i.Cond) {
				ev.Taken = true
				nextPC = pc + uint64(i.Imm)
			}
		case CBZ, CBNZ:
			v := m.xr(i.Rd)
			if !i.Sf {
				v = uint64(uint32(v))
			}
			if (v == 0) == (i.Op == CBZ) {
				ev.Taken = true
				nextPC = pc + uint64(i.Imm)
			}
		case BR, RET:
			nextPC = m.xr(i.Rn)
		case BLR:
			m.X[30] = pc + 4
			nextPC = m.xr(i.Rn)
		case SVC:
			done, err = m.Syscall(m.X[regX8], &m.X[regX0], m.X[regX1], m.X[regX2])
			if done || err != nil {
				return m.EndBatch(n, done, err)
			}
		case NOP:
			// nothing

		case LDR, STR, LDRSW:
			if err := m.loadStore(i, ev); err != nil {
				return m.EndBatch(n, false, err)
			}
		case LDP, STP:
			if err := m.loadStorePair(i, ev); err != nil {
				return m.EndBatch(n, false, err)
			}

		case FADD, FSUB, FMUL, FDIV, FNMUL, FMAX, FMIN:
			m.fpBin(i)
		case FMOVr, FABS, FNEG, FSQRT, FCVTsd, FCVTds:
			m.fpUn(i)
		case FCMP, FCMPE:
			a, b := m.fr(i.Rn, i.Dbl), m.fr(i.Rm, i.Dbl)
			switch {
			case math.IsNaN(a) || math.IsNaN(b):
				m.setFlags(0b0011)
			case a == b:
				m.setFlags(0b0110)
			case a < b:
				m.setFlags(0b1000)
			default:
				m.setFlags(0b0010)
			}
		case FCSEL:
			if m.condHolds(i.Cond) {
				m.F[i.Rd] = m.F[i.Rn]
			} else {
				m.F[i.Rd] = m.F[i.Rm]
			}
			if !i.Dbl {
				m.F[i.Rd] = uint64(uint32(m.F[i.Rd]))
			}
		case SCVTF, UCVTF:
			v := m.xr(i.Rn)
			var f float64
			if i.Op == SCVTF {
				if i.Sf {
					f = float64(int64(v))
				} else {
					f = float64(int32(uint32(v)))
				}
			} else {
				if i.Sf {
					f = float64(v)
				} else {
					f = float64(uint32(v))
				}
			}
			m.setF(i.Rd, f, i.Dbl)
		case FCVTZS, FCVTZU:
			f := math.Trunc(m.fr(i.Rn, i.Dbl))
			var v uint64
			if i.Op == FCVTZS {
				if i.Sf {
					v = uint64(satS64(f))
				} else {
					v = uint64(uint32(satS32(f)))
				}
			} else {
				if i.Sf {
					v = satU64(f)
				} else {
					v = uint64(satU32(f))
				}
			}
			m.setX(i.Rd, v, i.Sf)
		case FMOVxf:
			v := m.F[i.Rn]
			if !i.Sf {
				v = uint64(uint32(v))
			}
			m.setX(i.Rd, v, i.Sf)
		case FMOVfx:
			v := m.xr(i.Rn)
			if !i.Dbl {
				v = uint64(uint32(v))
			}
			m.F[i.Rd] = v
		case FMOVi:
			m.setF(i.Rd, math.Float64frombits(uint64(i.Imm)), i.Dbl)
		case FMADD, FMSUB, FNMADD, FNMSUB:
			a, b, c := m.fr(i.Rn, i.Dbl), m.fr(i.Rm, i.Dbl), m.fr(i.Ra, i.Dbl)
			var r float64
			switch i.Op {
			case FMADD:
				r = math.FMA(a, b, c)
			case FMSUB:
				r = math.FMA(-a, b, c)
			case FNMADD:
				r = math.FMA(-a, b, -c)
			case FNMSUB:
				r = math.FMA(a, b, -c)
			}
			m.setF(i.Rd, r, i.Dbl)

		default:
			return m.EndBatch(n, false, fmt.Errorf("a64: unimplemented op %s at %#x", i.Op.Name(), pc))
		}

		pc = nextPC
	}
	m.PCReg = pc
	return m.EndBatch(n, false, nil)
}

// addWithFlags computes a + b + carry, setting NZCV.
func (m *Machine) addWithFlags(a, b uint64, carry uint64, sf bool) uint64 {
	if !sf {
		a32, b32 := uint32(a), uint32(b)
		r := uint64(a32) + uint64(b32) + carry
		v := uint32(r)
		m.N = int32(v) < 0
		m.Z = v == 0
		m.C = r>>32 != 0
		m.V = (^(a32 ^ b32) & (a32 ^ v) >> 31) != 0
		return uint64(v)
	}
	r := a + b + carry
	m.N = int64(r) < 0
	m.Z = r == 0
	// Carry out of unsigned 64-bit addition.
	m.C = r < a || (carry == 1 && r == a)
	m.V = (^(a ^ b) & (a ^ r) >> 63) != 0
	return r
}

// logicFlags sets flags for ANDS/TST: N and Z from the result, C=V=0.
func (m *Machine) logicFlags(v uint64, sf bool) {
	if sf {
		m.N = int64(v) < 0
	} else {
		m.N = int32(uint32(v)) < 0
	}
	m.Z = v == 0
	m.C, m.V = false, false
}

// shiftedOperand applies the shift of a shifted-register operand.
func shiftedOperand(v uint64, kind Shift, amt uint8, sf bool) uint64 {
	if !sf {
		v = uint64(uint32(v))
	}
	if amt == 0 && kind == LSL {
		return v
	}
	width := uint(64)
	if !sf {
		width = 32
	}
	a := uint(amt) % width
	var r uint64
	switch kind {
	case LSL:
		r = v << a
	case LSR:
		r = v >> a
	case ASR:
		if sf {
			r = uint64(int64(v) >> a)
		} else {
			r = uint64(uint32(int32(uint32(v)) >> a))
		}
	case ROR:
		r = v>>a | v<<(width-a)
	}
	if !sf {
		r = uint64(uint32(r))
	}
	return r
}

// bfm implements the SBFM/UBFM bitfield move.
func bfm(src uint64, immr, imms uint8, regsize uint, signed bool) uint64 {
	mask := func(w uint) uint64 {
		if w >= 64 {
			return ^uint64(0)
		}
		return uint64(1)<<w - 1
	}
	var v uint64
	if imms >= immr {
		width := uint(imms-immr) + 1
		v = src >> immr & mask(width)
		if signed && v>>(width-1)&1 == 1 {
			v |= ^mask(width)
		}
	} else {
		width := uint(imms) + 1
		pos := regsize - uint(immr)
		v = (src & mask(width)) << pos
		if signed && src>>imms&1 == 1 {
			v |= ^mask(pos + width)
		}
	}
	if regsize == 32 {
		v = uint64(uint32(v))
	}
	return v
}

func divide(signed bool, a, b uint64, sf bool) uint64 {
	if !sf {
		a, b = uint64(uint32(a)), uint64(uint32(b))
		if signed {
			x, y := int32(uint32(a)), int32(uint32(b))
			if y == 0 {
				return 0
			}
			if x == math.MinInt32 && y == -1 {
				return uint64(uint32(x))
			}
			return uint64(uint32(x / y))
		}
		if b == 0 {
			return 0
		}
		return a / b
	}
	if signed {
		x, y := int64(a), int64(b)
		if y == 0 {
			return 0
		}
		if x == math.MinInt64 && y == -1 {
			return a
		}
		return uint64(x / y)
	}
	if b == 0 {
		return 0
	}
	return a / b
}

// fr reads an FP register at the instruction's precision as float64.
func (m *Machine) fr(r uint8, dbl bool) float64 {
	if dbl {
		return math.Float64frombits(m.F[r])
	}
	return float64(math.Float32frombits(uint32(m.F[r])))
}

// setF writes an FP register at the instruction's precision.
func (m *Machine) setF(r uint8, v float64, dbl bool) {
	if dbl {
		m.F[r] = math.Float64bits(v)
	} else {
		m.F[r] = uint64(math.Float32bits(float32(v)))
	}
}

func (m *Machine) fpBin(i *Inst) {
	a, b := m.fr(i.Rn, i.Dbl), m.fr(i.Rm, i.Dbl)
	var r float64
	switch i.Op {
	case FADD:
		r = a + b
	case FSUB:
		r = a - b
	case FMUL:
		r = a * b
	case FDIV:
		r = a / b
	case FNMUL:
		r = -(a * b)
	case FMAX:
		r = fmax64(a, b)
	case FMIN:
		r = fmin64(a, b)
	}
	if !i.Dbl {
		r = float64(float32(r))
	}
	m.setF(i.Rd, r, i.Dbl)
}

func (m *Machine) fpUn(i *Inst) {
	switch i.Op {
	case FMOVr:
		if i.Dbl {
			m.F[i.Rd] = m.F[i.Rn]
		} else {
			m.F[i.Rd] = uint64(uint32(m.F[i.Rn]))
		}
		return
	case FCVTsd: // double -> single
		m.setF(i.Rd, m.fr(i.Rn, true), false)
		return
	case FCVTds: // single -> double
		m.setF(i.Rd, m.fr(i.Rn, false), true)
		return
	}
	v := m.fr(i.Rn, i.Dbl)
	switch i.Op {
	case FABS:
		v = math.Abs(v)
	case FNEG:
		v = -v
	case FSQRT:
		v = math.Sqrt(v)
	}
	m.setF(i.Rd, v, i.Dbl)
}

func fmin64(a, b float64) float64 {
	switch {
	case math.IsNaN(a) || math.IsNaN(b):
		return math.NaN()
	case a < b || (a == 0 && b == 0 && math.Signbit(a)):
		return a
	default:
		return b
	}
}

func fmax64(a, b float64) float64 {
	switch {
	case math.IsNaN(a) || math.IsNaN(b):
		return math.NaN()
	case a > b || (a == 0 && b == 0 && !math.Signbit(a)):
		return a
	default:
		return b
	}
}

func satS32(v float64) int32 {
	switch {
	case math.IsNaN(v):
		return 0
	case v >= math.MaxInt32:
		return math.MaxInt32
	case v <= math.MinInt32:
		return math.MinInt32
	default:
		return int32(v)
	}
}

func satU32(v float64) uint32 {
	switch {
	case math.IsNaN(v), v <= 0:
		return 0
	case v >= math.MaxUint32:
		return math.MaxUint32
	default:
		return uint32(v)
	}
}

func satS64(v float64) int64 {
	switch {
	case math.IsNaN(v):
		return 0
	case v >= math.MaxInt64:
		return math.MaxInt64
	case v <= math.MinInt64:
		return math.MinInt64
	default:
		return int64(v)
	}
}

func satU64(v float64) uint64 {
	switch {
	case math.IsNaN(v), v <= 0:
		return 0
	case v >= math.MaxUint64:
		return math.MaxUint64
	default:
		return uint64(v)
	}
}

// loadStore executes single-register loads and stores in every
// addressing mode and records the access address in ev.
func (m *Machine) loadStore(i *Inst, ev *isa.Event) error {
	var addr uint64
	switch i.Mode {
	case ModeUImm:
		addr = m.X[i.Rn] + uint64(i.Imm)
	case ModePost:
		addr = m.X[i.Rn]
		m.X[i.Rn] += uint64(i.Imm)
	case ModePre:
		addr = m.X[i.Rn] + uint64(i.Imm)
		m.X[i.Rn] = addr
	case ModeReg:
		addr = m.X[i.Rn] + m.xr(i.Rm)<<i.ShiftAmt
	}

	if i.Op == STR {
		ev.StoreAddr = addr
		if i.FP {
			if i.Size == 8 {
				return m.Mem.Write64(addr, m.F[i.Rd])
			}
			return m.Mem.Write32(addr, uint32(m.F[i.Rd]))
		}
		v := m.xr(i.Rd)
		switch i.Size {
		case 1:
			return m.Mem.Write8(addr, uint8(v))
		case 2:
			return m.Mem.Write16(addr, uint16(v))
		case 4:
			return m.Mem.Write32(addr, uint32(v))
		default:
			return m.Mem.Write64(addr, v)
		}
	}

	ev.LoadAddr = addr
	if i.FP {
		if i.Size == 8 {
			v, err := m.Mem.Read64(addr)
			if err != nil {
				return err
			}
			m.F[i.Rd] = v
		} else {
			v, err := m.Mem.Read32(addr)
			if err != nil {
				return err
			}
			m.F[i.Rd] = uint64(v)
		}
		return nil
	}
	var v uint64
	var err error
	switch i.Size {
	case 1:
		var b uint8
		b, err = m.Mem.Read8(addr)
		v = uint64(b)
	case 2:
		var h uint16
		h, err = m.Mem.Read16(addr)
		v = uint64(h)
	case 4:
		var w uint32
		w, err = m.Mem.Read32(addr)
		if i.Op == LDRSW {
			v = uint64(int64(int32(w)))
		} else {
			v = uint64(w)
		}
	default:
		v, err = m.Mem.Read64(addr)
	}
	if err != nil {
		return err
	}
	if i.Rd != ZR {
		m.X[i.Rd] = v
	}
	return nil
}

// loadStorePair executes LDP/STP and records the address of the two
// registers' span in ev.
func (m *Machine) loadStorePair(i *Inst, ev *isa.Event) error {
	var addr uint64
	switch i.Mode {
	case ModeUImm:
		addr = m.X[i.Rn] + uint64(i.Imm)
	case ModePost:
		addr = m.X[i.Rn]
		m.X[i.Rn] += uint64(i.Imm)
	case ModePre:
		addr = m.X[i.Rn] + uint64(i.Imm)
		m.X[i.Rn] = addr
	default:
		return fmt.Errorf("a64: pair with register offset")
	}
	sz := uint64(i.Size)
	if i.Op == STP {
		ev.StoreAddr = addr
		write := func(off uint64, r uint8) error {
			if i.FP {
				if i.Size == 8 {
					return m.Mem.Write64(addr+off, m.F[r])
				}
				return m.Mem.Write32(addr+off, uint32(m.F[r]))
			}
			if i.Size == 8 {
				return m.Mem.Write64(addr+off, m.xr(r))
			}
			return m.Mem.Write32(addr+off, uint32(m.xr(r)))
		}
		if err := write(0, i.Rd); err != nil {
			return err
		}
		return write(sz, i.Rt2)
	}
	ev.LoadAddr = addr
	read := func(off uint64, r uint8) error {
		if i.FP {
			if i.Size == 8 {
				v, err := m.Mem.Read64(addr + off)
				if err != nil {
					return err
				}
				m.F[r] = v
			} else {
				v, err := m.Mem.Read32(addr + off)
				if err != nil {
					return err
				}
				m.F[r] = uint64(v)
			}
			return nil
		}
		if i.Size == 8 {
			v, err := m.Mem.Read64(addr + off)
			if err != nil {
				return err
			}
			if r != ZR {
				m.X[r] = v
			}
		} else {
			v, err := m.Mem.Read32(addr + off)
			if err != nil {
				return err
			}
			if r != ZR {
				m.X[r] = uint64(v)
			}
		}
		return nil
	}
	if err := read(0, i.Rd); err != nil {
		return err
	}
	return read(sz, i.Rt2)
}

// OpGroup returns the latency class of an instruction.
func OpGroup(i *Inst) isa.Group {
	switch i.Op {
	case LDR, LDRSW, LDP:
		return isa.GroupLoad
	case STR, STP:
		return isa.GroupStore
	case B, BL, Bcond, CBZ, CBNZ, BR, BLR, RET:
		return isa.GroupBranch
	case MADD, MSUB:
		return isa.GroupIntMul
	case SDIV, UDIV:
		return isa.GroupIntDiv
	case FADD, FSUB:
		return isa.GroupFPAdd
	case FMUL, FNMUL:
		return isa.GroupFPMul
	case FMADD, FMSUB, FNMADD, FNMSUB:
		return isa.GroupFPFMA
	case FDIV:
		return isa.GroupFPDiv
	case FSQRT:
		return isa.GroupFPSqrt
	case FMOVr, FABS, FNEG, FMAX, FMIN, FCMP, FCMPE, FCSEL, FMOVi:
		return isa.GroupFPSimple
	case FCVTsd, FCVTds, SCVTF, UCVTF, FCVTZS, FCVTZU, FMOVxf, FMOVfx:
		return isa.GroupFPCvt
	case SVC, NOP:
		return isa.GroupSystem
	default:
		return isa.GroupIntSimple
	}
}
