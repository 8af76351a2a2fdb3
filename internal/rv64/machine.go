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

// predecode decodes one text word and its latency group for
// isa.Process.Load.
func predecode(w uint32) (Inst, isa.Group, error) {
	inst, err := Decode(w)
	return inst, OpGroup(inst.Op), err
}

// Arch returns isa.RV64.
func (m *Machine) Arch() isa.Arch { return isa.RV64 }

// addSrc records a register source unless it is x0.
func addSrc(ev *isa.Event, r uint8) {
	if r != 0 {
		ev.AddSrc(isa.IntReg(r))
	}
}

// addDst records a register destination unless it is x0.
func addDst(ev *isa.Event, r uint8) {
	if r != 0 {
		ev.AddDst(isa.IntReg(r))
	}
}

func addFSrc(ev *isa.Event, r uint8) { ev.AddSrc(isa.FPReg(r)) }
func addFDst(ev *isa.Event, r uint8) { ev.AddDst(isa.FPReg(r)) }
