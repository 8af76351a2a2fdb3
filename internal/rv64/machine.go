package rv64

import (
	"isacmp/internal/elfio"
	"isacmp/internal/isa"
	"isacmp/internal/mem"
)

// Machine is the architectural state of a single RV64G hart together
// with its loaded program (isa.Process). It implements the simulation
// engine's Machine interface: Step retires exactly one instruction and
// reports it through an isa.Event.
type Machine struct {
	// X is the integer register file; X[0] is hard-wired to zero and
	// kept zero by construction.
	X [32]uint64
	// F is the floating-point register file holding raw IEEE-754 bits;
	// single-precision values are NaN-boxed.
	F [32]uint64

	isa.Process[Inst]
}

// Registers used by the Linux RISC-V syscall ABI.
const (
	regA0 = 10
	regA1 = 11
	regA2 = 12
	regA7 = 17
	regSP = 2
)

// NewMachine loads the ELF file into memory and predecodes the text
// segment: PC at the entry point, SP at the top of the stack.
func NewMachine(f *elfio.File, m *mem.Memory) (*Machine, error) {
	mach := &Machine{}
	if err := mach.Load(isa.RV64, f, m, predecode); err != nil {
		return nil, err
	}
	mach.X[regSP] = m.StackTop()
	return mach, nil
}

// Arch returns isa.RV64.
func (m *Machine) Arch() isa.Arch { return isa.RV64 }
