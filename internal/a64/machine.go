package a64

import (
	"isacmp/internal/elfio"
	"isacmp/internal/isa"
	"isacmp/internal/mem"
)

// Machine is the architectural state of a single AArch64 core together
// with its loaded program (isa.Process). It mirrors the rv64.Machine
// interface.
type Machine struct {
	// X is the integer register file; X[31] stores SP. The zero
	// register is materialised by the read helpers.
	X [32]uint64
	// F is the floating-point register file (raw bits; single-
	// precision values occupy the low 32 bits, upper bits zero).
	F [32]uint64
	// NZCV condition flags.
	N, Z, C, V bool

	isa.Process[Inst]
}

// AArch64 Linux syscall ABI registers.
const (
	regX0 = 0
	regX1 = 1
	regX2 = 2
	regX8 = 8
	regSP = 31
)

// NewMachine loads the ELF file into memory and predecodes the text
// segment.
func NewMachine(f *elfio.File, m *mem.Memory) (*Machine, error) {
	mach := &Machine{}
	if err := mach.Load(isa.AArch64, f, m, predecode); err != nil {
		return nil, err
	}
	mach.X[regSP] = m.StackTop()
	return mach, nil
}

// Arch returns isa.AArch64.
func (m *Machine) Arch() isa.Arch { return isa.AArch64 }

// xr reads register r in a zero-register context.
func (m *Machine) xr(r uint8) uint64 {
	if r == ZR {
		return 0
	}
	return m.X[r]
}

// setX writes register r in a zero-register context.
func (m *Machine) setX(r uint8, v uint64, sf bool) {
	if r == ZR {
		return
	}
	if !sf {
		v = uint64(uint32(v))
	}
	m.X[r] = v
}

// flags packs NZCV into the conventional nibble (N=8, Z=4, C=2, V=1).
func (m *Machine) flags() uint8 {
	var f uint8
	if m.N {
		f |= 8
	}
	if m.Z {
		f |= 4
	}
	if m.C {
		f |= 2
	}
	if m.V {
		f |= 1
	}
	return f
}

// setFlags unpacks the NZCV nibble.
func (m *Machine) setFlags(f uint8) {
	m.N, m.Z, m.C, m.V = f&8 != 0, f&4 != 0, f&2 != 0, f&1 != 0
}

// condHolds evaluates a condition code against the current flags.
func (m *Machine) condHolds(c Cond) bool {
	var r bool
	switch c &^ 1 {
	case EQ:
		r = m.Z
	case CS:
		r = m.C
	case MI:
		r = m.N
	case VS:
		r = m.V
	case HI:
		r = m.C && !m.Z
	case GE:
		r = m.N == m.V
	case GT:
		r = !m.Z && m.N == m.V
	case AL:
		return true // AL and NV both execute unconditionally
	}
	if c&1 == 1 {
		return !r
	}
	return r
}
