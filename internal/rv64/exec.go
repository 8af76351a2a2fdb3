package rv64

import (
	"fmt"
	"math"

	"isacmp/internal/isa"
)

// Step retires one instruction, updating architectural state and
// filling ev with the execution record: StepN over one event. It
// returns done=true once the program has exited. ev must not be nil.
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
	x := &m.X
	for ; n < len(evs); n++ {
		m.PCReg = pc
		idx := (pc - m.TextBase) / 4
		if pc < m.TextBase || idx >= uint64(len(m.Prog)) || pc%4 != 0 {
			return m.EndBatch(n, false, m.FetchFault())
		}
		i := m.Prog[idx]
		if i.Op == OpInvalid {
			// A text word that failed tolerant predecode; it faults
			// only here, when execution actually reaches it.
			return m.EndBatch(n, false, m.FetchFault())
		}

		ev := &evs[n]
		*ev = m.Tmpl[idx]

		nextPC := pc + 4

		switch i.Op {
		case LUI:
			m.setX(i.Rd, uint64(i.Imm))
		case AUIPC:
			m.setX(i.Rd, pc+uint64(i.Imm))
		case JAL:
			m.setX(i.Rd, pc+4)
			nextPC = pc + uint64(i.Imm)
		case JALR:
			t := (x[i.Rs1] + uint64(i.Imm)) &^ 1
			m.setX(i.Rd, pc+4)
			nextPC = t
		case BEQ, BNE, BLT, BGE, BLTU, BGEU:
			a, b := x[i.Rs1], x[i.Rs2]
			var take bool
			switch i.Op {
			case BEQ:
				take = a == b
			case BNE:
				take = a != b
			case BLT:
				take = int64(a) < int64(b)
			case BGE:
				take = int64(a) >= int64(b)
			case BLTU:
				take = a < b
			case BGEU:
				take = a >= b
			}
			if take {
				ev.Taken = true
				nextPC = pc + uint64(i.Imm)
			}

		case LB, LH, LW, LD, LBU, LHU, LWU:
			addr := x[i.Rs1] + uint64(i.Imm)
			v, lerr := m.load(i.Op, addr)
			if lerr != nil {
				return m.EndBatch(n, false, lerr)
			}
			ev.LoadAddr = addr
			m.setX(i.Rd, v)
		case SB, SH, SW, SD:
			addr := x[i.Rs1] + uint64(i.Imm)
			if serr := m.store(i.Op, addr, x[i.Rs2]); serr != nil {
				return m.EndBatch(n, false, serr)
			}
			ev.StoreAddr = addr

		case ADDI:
			m.setX(i.Rd, x[i.Rs1]+uint64(i.Imm))
		case SLTI:
			m.setX(i.Rd, b2u(int64(x[i.Rs1]) < i.Imm))
		case SLTIU:
			m.setX(i.Rd, b2u(x[i.Rs1] < uint64(i.Imm)))
		case XORI:
			m.setX(i.Rd, x[i.Rs1]^uint64(i.Imm))
		case ORI:
			m.setX(i.Rd, x[i.Rs1]|uint64(i.Imm))
		case ANDI:
			m.setX(i.Rd, x[i.Rs1]&uint64(i.Imm))
		case SLLI:
			m.setX(i.Rd, x[i.Rs1]<<uint(i.Imm))
		case SRLI:
			m.setX(i.Rd, x[i.Rs1]>>uint(i.Imm))
		case SRAI:
			m.setX(i.Rd, uint64(int64(x[i.Rs1])>>uint(i.Imm)))
		case ADDIW:
			m.setX(i.Rd, sext32(uint32(x[i.Rs1])+uint32(i.Imm)))
		case SLLIW:
			m.setX(i.Rd, sext32(uint32(x[i.Rs1])<<uint(i.Imm)))
		case SRLIW:
			m.setX(i.Rd, sext32(uint32(x[i.Rs1])>>uint(i.Imm)))
		case SRAIW:
			m.setX(i.Rd, uint64(int64(int32(x[i.Rs1])>>uint(i.Imm))))

		case ADD, SUB, SLL, SLT, SLTU, XOR, SRL, SRA, OR, AND,
			ADDW, SUBW, SLLW, SRLW, SRAW,
			MUL, MULH, MULHSU, MULHU, DIV, DIVU, REM, REMU,
			MULW, DIVW, DIVUW, REMW, REMUW:
			m.setX(i.Rd, intOp(i.Op, x[i.Rs1], x[i.Rs2]))

		case ECALL:
			done, err = m.Syscall(m.X[regA7], &m.X[regA0], m.X[regA1], m.X[regA2])
			if done || err != nil {
				return m.EndBatch(n, done, err)
			}
		case EBREAK:
			return m.EndBatch(n, false, fmt.Errorf("rv64: ebreak at %#x", pc))
		case FENCE:
			// No-op on a single hart.

		case FLW, FLD:
			addr := x[i.Rs1] + uint64(i.Imm)
			if i.Op == FLW {
				v, lerr := m.Mem.Read32(addr)
				if lerr != nil {
					return m.EndBatch(n, false, lerr)
				}
				m.F[i.Rd] = nanBox(v)
			} else {
				v, lerr := m.Mem.Read64(addr)
				if lerr != nil {
					return m.EndBatch(n, false, lerr)
				}
				m.F[i.Rd] = v
			}
			ev.LoadAddr = addr
		case FSW, FSD:
			addr := x[i.Rs1] + uint64(i.Imm)
			if i.Op == FSW {
				if serr := m.Mem.Write32(addr, uint32(m.F[i.Rs2])); serr != nil {
					return m.EndBatch(n, false, serr)
				}
			} else {
				if serr := m.Mem.Write64(addr, m.F[i.Rs2]); serr != nil {
					return m.EndBatch(n, false, serr)
				}
			}
			ev.StoreAddr = addr

		case FMADDS, FMSUBS, FNMSUBS, FNMADDS, FMADDD, FMSUBD, FNMSUBD, FNMADDD:
			m.fma(i)

		case FADDS, FSUBS, FMULS, FDIVS, FSGNJS, FSGNJNS, FSGNJXS, FMINS, FMAXS,
			FADDD, FSUBD, FMULD, FDIVD, FSGNJD, FSGNJND, FSGNJXD, FMIND, FMAXD:
			m.fpBin(i)

		case FSQRTS:
			m.F[i.Rd] = nanBox(math.Float32bits(float32(math.Sqrt(float64(m.getS(i.Rs1))))))
		case FSQRTD:
			m.F[i.Rd] = math.Float64bits(math.Sqrt(m.getD(i.Rs1)))

		case FEQS, FLTS, FLES, FEQD, FLTD, FLED:
			m.setX(i.Rd, m.fpCmp(i))

		case FCVTWS, FCVTWUS, FCVTLS, FCVTLUS, FCVTWD, FCVTWUD, FCVTLD, FCVTLUD:
			m.setX(i.Rd, m.fpToInt(i))
		case FCVTSW, FCVTSWU, FCVTSL, FCVTSLU, FCVTDW, FCVTDWU, FCVTDL, FCVTDLU:
			m.intToFP(i)
		case FCVTSD:
			m.F[i.Rd] = nanBox(math.Float32bits(float32(m.getD(i.Rs1))))
		case FCVTDS:
			m.F[i.Rd] = math.Float64bits(float64(m.getS(i.Rs1)))

		case FMVXW:
			m.setX(i.Rd, sext32(uint32(m.F[i.Rs1])))
		case FMVXD:
			m.setX(i.Rd, m.F[i.Rs1])
		case FMVWX:
			m.F[i.Rd] = nanBox(uint32(x[i.Rs1]))
		case FMVDX:
			m.F[i.Rd] = x[i.Rs1]
		case FCLASSS:
			m.setX(i.Rd, classifyS(m.getS(i.Rs1)))
		case FCLASSD:
			m.setX(i.Rd, classifyD(m.getD(i.Rs1)))

		case LRW, LRD, SCW, SCD,
			AMOSWAPW, AMOADDW, AMOXORW, AMOANDW, AMOORW, AMOMINW, AMOMAXW, AMOMINUW, AMOMAXUW,
			AMOSWAPD, AMOADDD, AMOXORD, AMOANDD, AMOORD, AMOMIND, AMOMAXD, AMOMINUD, AMOMAXUD:
			if aerr := m.amo(i, ev); aerr != nil {
				return m.EndBatch(n, false, aerr)
			}

		default:
			return m.EndBatch(n, false, fmt.Errorf("rv64: unimplemented op %s at %#x", i.Op.Name(), pc))
		}

		pc = nextPC
	}
	m.PCReg = pc
	return m.EndBatch(n, false, nil)
}

// setX writes integer register r, honouring the zero register.
func (m *Machine) setX(r uint8, v uint64) {
	if r != 0 {
		m.X[r] = v
	}
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func sext32(v uint32) uint64 { return uint64(int64(int32(v))) }

// nanBox embeds a single-precision value into a 64-bit FP register.
func nanBox(v uint32) uint64 { return 0xffffffff_00000000 | uint64(v) }

const canonicalNaN32 uint32 = 0x7fc00000

// getS reads a single-precision register, unboxing NaN-boxed values;
// improperly boxed values read as the canonical NaN, per the spec.
func (m *Machine) getS(r uint8) float32 {
	v := m.F[r]
	if v>>32 != 0xffffffff {
		return math.Float32frombits(canonicalNaN32)
	}
	return math.Float32frombits(uint32(v))
}

// getD reads a double-precision register.
func (m *Machine) getD(r uint8) float64 { return math.Float64frombits(m.F[r]) }

func (m *Machine) load(op Op, addr uint64) (uint64, error) {
	switch op {
	case LB:
		v, err := m.Mem.Read8(addr)
		return uint64(int64(int8(v))), err
	case LBU:
		v, err := m.Mem.Read8(addr)
		return uint64(v), err
	case LH:
		v, err := m.Mem.Read16(addr)
		return uint64(int64(int16(v))), err
	case LHU:
		v, err := m.Mem.Read16(addr)
		return uint64(v), err
	case LW:
		v, err := m.Mem.Read32(addr)
		return sext32(v), err
	case LWU:
		v, err := m.Mem.Read32(addr)
		return uint64(v), err
	case LD:
		return m.Mem.Read64(addr)
	}
	panic("rv64: not a load")
}

func (m *Machine) store(op Op, addr, v uint64) error {
	switch op {
	case SB:
		return m.Mem.Write8(addr, uint8(v))
	case SH:
		return m.Mem.Write16(addr, uint16(v))
	case SW:
		return m.Mem.Write32(addr, uint32(v))
	case SD:
		return m.Mem.Write64(addr, v)
	}
	panic("rv64: not a store")
}

// intOp evaluates a register-register integer operation.
func intOp(op Op, a, b uint64) uint64 {
	switch op {
	case ADD:
		return a + b
	case SUB:
		return a - b
	case SLL:
		return a << (b & 63)
	case SLT:
		return b2u(int64(a) < int64(b))
	case SLTU:
		return b2u(a < b)
	case XOR:
		return a ^ b
	case SRL:
		return a >> (b & 63)
	case SRA:
		return uint64(int64(a) >> (b & 63))
	case OR:
		return a | b
	case AND:
		return a & b
	case ADDW:
		return sext32(uint32(a) + uint32(b))
	case SUBW:
		return sext32(uint32(a) - uint32(b))
	case SLLW:
		return sext32(uint32(a) << (b & 31))
	case SRLW:
		return sext32(uint32(a) >> (b & 31))
	case SRAW:
		return uint64(int64(int32(a) >> (b & 31)))
	case MUL:
		return a * b
	case MULH:
		return uint64(mulh64(int64(a), int64(b)))
	case MULHU:
		return mulhu64(a, b)
	case MULHSU:
		return mulhsu64(int64(a), b)
	case DIV:
		if b == 0 {
			return ^uint64(0)
		}
		if int64(a) == math.MinInt64 && int64(b) == -1 {
			return a
		}
		return uint64(int64(a) / int64(b))
	case DIVU:
		if b == 0 {
			return ^uint64(0)
		}
		return a / b
	case REM:
		if b == 0 {
			return a
		}
		if int64(a) == math.MinInt64 && int64(b) == -1 {
			return 0
		}
		return uint64(int64(a) % int64(b))
	case REMU:
		if b == 0 {
			return a
		}
		return a % b
	case MULW:
		return sext32(uint32(a) * uint32(b))
	case DIVW:
		x, y := int32(a), int32(b)
		if y == 0 {
			return ^uint64(0)
		}
		if x == math.MinInt32 && y == -1 {
			return sext32(uint32(x))
		}
		return uint64(int64(x / y))
	case DIVUW:
		x, y := uint32(a), uint32(b)
		if y == 0 {
			return ^uint64(0)
		}
		return sext32(x / y)
	case REMW:
		x, y := int32(a), int32(b)
		if y == 0 {
			return sext32(uint32(x))
		}
		if x == math.MinInt32 && y == -1 {
			return 0
		}
		return uint64(int64(x % y))
	case REMUW:
		x, y := uint32(a), uint32(b)
		if y == 0 {
			return sext32(x)
		}
		return sext32(x % y)
	}
	panic("rv64: not an int op")
}

// mulh64 returns the high 64 bits of the signed 128-bit product.
func mulh64(a, b int64) int64 {
	h := int64(mulhu64(uint64(a), uint64(b)))
	if a < 0 {
		h -= b
	}
	if b < 0 {
		h -= a
	}
	return h
}

// mulhsu64 returns the high 64 bits of signed×unsigned.
func mulhsu64(a int64, b uint64) uint64 {
	h := mulhu64(uint64(a), b)
	if a < 0 {
		h -= b
	}
	return h
}

// mulhu64 returns the high 64 bits of the unsigned 128-bit product.
func mulhu64(a, b uint64) uint64 {
	aLo, aHi := a&0xffffffff, a>>32
	bLo, bHi := b&0xffffffff, b>>32
	t := aLo*bLo>>32 + aHi*bLo
	lo, hi := t&0xffffffff, t>>32
	lo += aLo * bHi
	return aHi*bHi + hi + lo>>32
}

// fma executes the four fused multiply-add variants.
func (m *Machine) fma(i Inst) {
	switch i.Op {
	case FMADDS, FMSUBS, FNMSUBS, FNMADDS:
		a, b, c := float64(m.getS(i.Rs1)), float64(m.getS(i.Rs2)), float64(m.getS(i.Rs3))
		var r float64
		switch i.Op {
		case FMADDS:
			r = math.FMA(a, b, c)
		case FMSUBS:
			r = math.FMA(a, b, -c)
		case FNMSUBS:
			r = math.FMA(-a, b, c)
		case FNMADDS:
			r = math.FMA(-a, b, -c)
		}
		m.F[i.Rd] = nanBox(math.Float32bits(float32(r)))
	default:
		a, b, c := m.getD(i.Rs1), m.getD(i.Rs2), m.getD(i.Rs3)
		var r float64
		switch i.Op {
		case FMADDD:
			r = math.FMA(a, b, c)
		case FMSUBD:
			r = math.FMA(a, b, -c)
		case FNMSUBD:
			r = math.FMA(-a, b, c)
		case FNMADDD:
			r = math.FMA(-a, b, -c)
		}
		m.F[i.Rd] = math.Float64bits(r)
	}
}

// fpBin executes two-operand FP arithmetic and sign-injection ops.
func (m *Machine) fpBin(i Inst) {
	switch i.Op {
	case FADDS, FSUBS, FMULS, FDIVS, FMINS, FMAXS:
		a, b := m.getS(i.Rs1), m.getS(i.Rs2)
		var r float32
		switch i.Op {
		case FADDS:
			r = a + b
		case FSUBS:
			r = a - b
		case FMULS:
			r = a * b
		case FDIVS:
			r = a / b
		case FMINS:
			r = fmin32(a, b)
		case FMAXS:
			r = fmax32(a, b)
		}
		m.F[i.Rd] = nanBox(math.Float32bits(r))
	case FSGNJS, FSGNJNS, FSGNJXS:
		a := uint32(m.F[i.Rs1])
		b := uint32(m.F[i.Rs2])
		m.F[i.Rd] = nanBox(signInject32(i.Op, a, b))
	case FADDD, FSUBD, FMULD, FDIVD, FMIND, FMAXD:
		a, b := m.getD(i.Rs1), m.getD(i.Rs2)
		var r float64
		switch i.Op {
		case FADDD:
			r = a + b
		case FSUBD:
			r = a - b
		case FMULD:
			r = a * b
		case FDIVD:
			r = a / b
		case FMIND:
			r = fmin64(a, b)
		case FMAXD:
			r = fmax64(a, b)
		}
		m.F[i.Rd] = math.Float64bits(r)
	case FSGNJD, FSGNJND, FSGNJXD:
		m.F[i.Rd] = signInject64(i.Op, m.F[i.Rs1], m.F[i.Rs2])
	}
}

func signInject32(op Op, a, b uint32) uint32 {
	const signBit = uint32(1) << 31
	switch op {
	case FSGNJS:
		return a&^signBit | b&signBit
	case FSGNJNS:
		return a&^signBit | ^b&signBit
	default: // FSGNJXS
		return a ^ b&signBit
	}
}

func signInject64(op Op, a, b uint64) uint64 {
	const signBit = uint64(1) << 63
	switch op {
	case FSGNJD:
		return a&^signBit | b&signBit
	case FSGNJND:
		return a&^signBit | ^b&signBit
	default: // FSGNJXD
		return a ^ b&signBit
	}
}

func fmin32(a, b float32) float32 {
	switch {
	case isNaN32(a):
		return b
	case isNaN32(b):
		return a
	case a < b || (a == 0 && b == 0 && math.Signbit(float64(a))):
		return a
	default:
		return b
	}
}

func fmax32(a, b float32) float32 {
	switch {
	case isNaN32(a):
		return b
	case isNaN32(b):
		return a
	case a > b || (a == 0 && b == 0 && !math.Signbit(float64(a))):
		return a
	default:
		return b
	}
}

func fmin64(a, b float64) float64 {
	switch {
	case math.IsNaN(a):
		return b
	case math.IsNaN(b):
		return a
	case a < b || (a == 0 && b == 0 && math.Signbit(a)):
		return a
	default:
		return b
	}
}

func fmax64(a, b float64) float64 {
	switch {
	case math.IsNaN(a):
		return b
	case math.IsNaN(b):
		return a
	case a > b || (a == 0 && b == 0 && !math.Signbit(a)):
		return a
	default:
		return b
	}
}

func isNaN32(f float32) bool { return f != f }

// fpCmp evaluates FEQ/FLT/FLE; comparisons with NaN yield 0.
func (m *Machine) fpCmp(i Inst) uint64 {
	switch i.Op {
	case FEQS:
		return b2u(m.getS(i.Rs1) == m.getS(i.Rs2))
	case FLTS:
		return b2u(m.getS(i.Rs1) < m.getS(i.Rs2))
	case FLES:
		return b2u(m.getS(i.Rs1) <= m.getS(i.Rs2))
	case FEQD:
		return b2u(m.getD(i.Rs1) == m.getD(i.Rs2))
	case FLTD:
		return b2u(m.getD(i.Rs1) < m.getD(i.Rs2))
	default: // FLED
		return b2u(m.getD(i.Rs1) <= m.getD(i.Rs2))
	}
}

// fpToInt implements FCVT to integer with RISC-V saturation semantics.
func (m *Machine) fpToInt(i Inst) uint64 {
	var v float64
	switch i.Op {
	case FCVTWS, FCVTWUS, FCVTLS, FCVTLUS:
		v = float64(m.getS(i.Rs1))
	default:
		v = m.getD(i.Rs1)
	}
	// Honour the static rounding mode: RTZ (1, what C casts compile
	// to) truncates; everything else is treated as the RNE default.
	if i.RM == 1 {
		v = math.Trunc(v)
	} else {
		v = math.RoundToEven(v)
	}
	switch i.Op {
	case FCVTWS, FCVTWD:
		return sext32(uint32(satS32(v)))
	case FCVTWUS, FCVTWUD:
		return sext32(satU32(v))
	case FCVTLS, FCVTLD:
		return uint64(satS64(v))
	default: // FCVTLUS, FCVTLUD
		return satU64(v)
	}
}

func satS32(v float64) int32 {
	switch {
	case math.IsNaN(v), v >= math.MaxInt32:
		return math.MaxInt32
	case v <= math.MinInt32:
		return math.MinInt32
	default:
		return int32(v)
	}
}

func satU32(v float64) uint32 {
	switch {
	case math.IsNaN(v), v >= math.MaxUint32:
		return math.MaxUint32
	case v <= 0:
		return 0
	default:
		return uint32(v)
	}
}

func satS64(v float64) int64 {
	switch {
	case math.IsNaN(v), v >= math.MaxInt64:
		return math.MaxInt64
	case v <= math.MinInt64:
		return math.MinInt64
	default:
		return int64(v)
	}
}

func satU64(v float64) uint64 {
	switch {
	case math.IsNaN(v), v >= math.MaxUint64:
		return math.MaxUint64
	case v <= 0:
		return 0
	default:
		return uint64(v)
	}
}

// intToFP implements FCVT from integer.
func (m *Machine) intToFP(i Inst) {
	v := m.X[i.Rs1]
	var f float64
	switch i.Op {
	case FCVTSW, FCVTDW:
		f = float64(int32(v))
	case FCVTSWU, FCVTDWU:
		f = float64(uint32(v))
	case FCVTSL, FCVTDL:
		f = float64(int64(v))
	case FCVTSLU, FCVTDLU:
		f = float64(v)
	}
	switch i.Op {
	case FCVTSW, FCVTSWU, FCVTSL, FCVTSLU:
		m.F[i.Rd] = nanBox(math.Float32bits(float32(f)))
	default:
		m.F[i.Rd] = math.Float64bits(f)
	}
}

// FP classification masks per the RISC-V spec.
func classifyD(v float64) uint64 {
	b := math.Float64bits(v)
	sign := b>>63 != 0
	exp := b >> 52 & 0x7ff
	frac := b & (1<<52 - 1)
	switch {
	case exp == 0x7ff && frac != 0:
		if frac>>51 == 1 {
			return 1 << 9 // quiet NaN
		}
		return 1 << 8 // signalling NaN
	case exp == 0x7ff && sign:
		return 1 << 0 // -inf
	case exp == 0x7ff:
		return 1 << 7 // +inf
	case exp == 0 && frac == 0 && sign:
		return 1 << 3 // -0
	case exp == 0 && frac == 0:
		return 1 << 4 // +0
	case exp == 0 && sign:
		return 1 << 2 // negative subnormal
	case exp == 0:
		return 1 << 5 // positive subnormal
	case sign:
		return 1 << 1 // negative normal
	default:
		return 1 << 6 // positive normal
	}
}

func classifyS(v float32) uint64 {
	b := math.Float32bits(v)
	sign := b>>31 != 0
	exp := b >> 23 & 0xff
	frac := b & (1<<23 - 1)
	switch {
	case exp == 0xff && frac != 0:
		if frac>>22 == 1 {
			return 1 << 9
		}
		return 1 << 8
	case exp == 0xff && sign:
		return 1 << 0
	case exp == 0xff:
		return 1 << 7
	case exp == 0 && frac == 0 && sign:
		return 1 << 3
	case exp == 0 && frac == 0:
		return 1 << 4
	case exp == 0 && sign:
		return 1 << 2
	case exp == 0:
		return 1 << 5
	case sign:
		return 1 << 1
	default:
		return 1 << 6
	}
}

// amo executes the A-extension operations with single-hart semantics
// (LR always reserves, SC always succeeds) and records the access
// address in ev.
func (m *Machine) amo(i Inst, ev *isa.Event) error {
	addr := m.X[i.Rs1]
	word := specs[i.Op].f3 == 2
	readMem := func() (uint64, error) {
		if word {
			v, err := m.Mem.Read32(addr)
			return sext32(v), err
		}
		return m.Mem.Read64(addr)
	}
	writeMem := func(v uint64) error {
		if word {
			return m.Mem.Write32(addr, uint32(v))
		}
		return m.Mem.Write64(addr, v)
	}

	switch i.Op {
	case LRW, LRD:
		v, err := readMem()
		if err != nil {
			return err
		}
		ev.LoadAddr = addr
		m.setX(i.Rd, v)
		return nil
	case SCW, SCD:
		if err := writeMem(m.X[i.Rs2]); err != nil {
			return err
		}
		ev.StoreAddr = addr
		m.setX(i.Rd, 0) // success
		return nil
	}

	old, err := readMem()
	if err != nil {
		return err
	}
	src := m.X[i.Rs2]
	var result uint64
	switch i.Op {
	case AMOSWAPW, AMOSWAPD:
		result = src
	case AMOADDW, AMOADDD:
		result = old + src
	case AMOXORW, AMOXORD:
		result = old ^ src
	case AMOANDW, AMOANDD:
		result = old & src
	case AMOORW, AMOORD:
		result = old | src
	case AMOMINW, AMOMIND:
		result = old
		if int64(src) < int64(old) {
			result = src
		}
	case AMOMAXW, AMOMAXD:
		result = old
		if int64(src) > int64(old) {
			result = src
		}
	case AMOMINUW, AMOMINUD:
		result = old
		if src < old {
			result = src
		}
	case AMOMAXUW, AMOMAXUD:
		result = old
		if src > old {
			result = src
		}
	}
	if word {
		result = uint64(uint32(result))
		old = sext32(uint32(old))
	}
	if err := writeMem(result); err != nil {
		return err
	}
	ev.LoadAddr, ev.StoreAddr = addr, addr
	m.setX(i.Rd, old)
	return nil
}

// OpGroup returns the latency class of an operation.
func OpGroup(op Op) isa.Group {
	switch op {
	case LB, LH, LW, LD, LBU, LHU, LWU, FLW, FLD, LRW, LRD:
		return isa.GroupLoad
	case SB, SH, SW, SD, FSW, FSD, SCW, SCD:
		return isa.GroupStore
	case BEQ, BNE, BLT, BGE, BLTU, BGEU, JAL, JALR:
		return isa.GroupBranch
	case MUL, MULH, MULHSU, MULHU, MULW:
		return isa.GroupIntMul
	case DIV, DIVU, REM, REMU, DIVW, DIVUW, REMW, REMUW:
		return isa.GroupIntDiv
	case FADDS, FSUBS, FADDD, FSUBD:
		return isa.GroupFPAdd
	case FMULS, FMULD:
		return isa.GroupFPMul
	case FMADDS, FMSUBS, FNMSUBS, FNMADDS, FMADDD, FMSUBD, FNMSUBD, FNMADDD:
		return isa.GroupFPFMA
	case FDIVS, FDIVD:
		return isa.GroupFPDiv
	case FSQRTS, FSQRTD:
		return isa.GroupFPSqrt
	case FSGNJS, FSGNJNS, FSGNJXS, FSGNJD, FSGNJND, FSGNJXD,
		FMINS, FMAXS, FMIND, FMAXD, FEQS, FLTS, FLES, FEQD, FLTD, FLED,
		FCLASSS, FCLASSD:
		return isa.GroupFPSimple
	case FCVTWS, FCVTWUS, FCVTLS, FCVTLUS, FCVTSW, FCVTSWU, FCVTSL, FCVTSLU,
		FCVTWD, FCVTWUD, FCVTLD, FCVTLUD, FCVTDW, FCVTDWU, FCVTDL, FCVTDLU,
		FCVTSD, FCVTDS, FMVXW, FMVXD, FMVWX, FMVDX:
		return isa.GroupFPCvt
	case ECALL, EBREAK, FENCE:
		return isa.GroupSystem
	case AMOSWAPW, AMOADDW, AMOXORW, AMOANDW, AMOORW, AMOMINW, AMOMAXW, AMOMINUW, AMOMAXUW,
		AMOSWAPD, AMOADDD, AMOXORD, AMOANDD, AMOORD, AMOMIND, AMOMAXD, AMOMINUD, AMOMAXUD:
		return isa.GroupLoad
	default:
		return isa.GroupIntSimple
	}
}
