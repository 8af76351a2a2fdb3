package isa

import (
	"encoding/binary"
	"fmt"
	"io"

	"isacmp/internal/elfio"
	"isacmp/internal/mem"
)

// The ISA-independent half of a machine lives here, outside the ISA
// packages, as SimEng keeps its process and Linux layers outside its
// per-ISA modules: the ELF image an assembler builds, its loading into
// memory, the predecoded text and the system calls. An ISA package
// keeps its registers, encoder, decoder, executor, label fixups and
// the registers its syscall ABI reads.

// elfMachines and prefixes give each architecture's ELF machine number
// and the prefix of its package's messages.
var (
	elfMachines = [...]uint16{AArch64: elfio.EMAarch64, RV64: elfio.EMRiscV}
	prefixes    = [...]string{AArch64: "a64", RV64: "rv64"}
)

// Program lays out an assembled program: its text at TextBase, which
// is also the entry point, and its data, when there is any, at
// DataBase.
type Program struct {
	TextBase uint64
	DataBase uint64
	Data     []byte
}

// Sym marks the start of a named text region (a benchmark kernel) at
// instruction Index; the region extends to the next mark or the end of
// the text.
type Sym struct {
	Name  string
	Index int
}

// Image builds arch's statically linked executable of p from its
// assembled text words, with one ELF symbol per mark.
func (p Program) Image(arch Arch, words []uint32, syms []Sym) *elfio.File {
	text := make([]byte, 4*len(words))
	for i, w := range words {
		binary.LittleEndian.PutUint32(text[4*i:], w)
	}
	f := &elfio.File{
		Machine: elfMachines[arch],
		Entry:   p.TextBase,
		Segments: []elfio.Segment{
			{Vaddr: p.TextBase, Data: text, Flags: elfio.PFR | elfio.PFX, Name: ".text"},
		},
	}
	if len(p.Data) > 0 {
		f.Segments = append(f.Segments, elfio.Segment{
			Vaddr: p.DataBase, Data: p.Data, Flags: elfio.PFR | elfio.PFW, Name: ".data",
		})
	}
	for i, s := range syms {
		end := len(words)
		if i+1 < len(syms) {
			end = syms[i+1].Index
		}
		f.Symbols = append(f.Symbols, elfio.Symbol{
			Name:  s.Name,
			Value: p.TextBase + uint64(s.Index*4),
			Size:  uint64((end - s.Index) * 4),
		})
	}
	return f
}

// Linux generic system call numbers, shared by arm64 and riscv64.
const (
	SysWrite = 64
	SysExit  = 93
	SysBrk   = 214
)

// Process is a loaded program: its memory, its program counter, its
// predecoded text and the state of its system calls. An ISA's Machine
// embeds a Process of its instruction type by value, so its StepN
// fetches from Prog and Tmpl inline, stores PCReg at each instruction
// boundary and adds a batch's retirements to Retired through
// EndBatch.
type Process[I any] struct {
	// PCReg is the program counter.
	PCReg uint64
	// Mem is the memory image.
	Mem *mem.Memory
	// Stdout receives bytes written through the write system call.
	Stdout io.Writer

	// Prog and Tmpl are the predecoded text segment: slot i holds the
	// instruction at TextBase+4i and its event template, the static
	// half of the Event it retires (see Event). A word that failed to
	// predecode keeps the zero instruction and faults (FetchFault)
	// only if it is executed.
	Prog     []I
	Tmpl     []Event
	TextBase uint64

	// Halted is set by the exit system call; Retired counts retired
	// instructions.
	Halted  bool
	Retired uint64

	arch     Arch
	exitCode int64
	// bad records the decode error of each text word that failed to
	// predecode, keyed by PC; nil when the whole text predecoded
	// cleanly (the normal case).
	bad map[uint64]error
	// fallbacks counts fetches the predecoded text could not serve.
	fallbacks uint64
}

// Load loads the executable f for arch into m: it checks the ELF
// machine, copies every segment into memory, puts the break past the
// highest segment, predecodes the one executable segment and points
// the PC at the entry. For each text word, Load sets its template's PC
// and Word, and predecode decodes the word and fills the rest of the
// template in place. Predecode is tolerant: data or padding islands
// inside the text must not fail construction, so a word predecode
// rejects is recorded and faults only when executed.
func (p *Process[I]) Load(arch Arch, f *elfio.File, m *mem.Memory, predecode func(w uint32, tmpl *Event) (I, error)) error {
	p.arch = arch
	if f.Machine != elfMachines[arch] {
		return fmt.Errorf("%s: ELF machine %d is not %s", prefixes[arch], f.Machine, arch)
	}
	text, err := f.Text()
	if err != nil {
		return fmt.Errorf("%s: %w", prefixes[arch], err)
	}
	brk := m.Base()
	for _, s := range f.Segments {
		if err := m.WriteBytes(s.Vaddr, s.Data); err != nil {
			return fmt.Errorf("%s: loading segment at %#x: %w", prefixes[arch], s.Vaddr, err)
		}
		brk = max(brk, s.Vaddr+uint64(len(s.Data)))
	}
	m.SetBrk((brk + 15) &^ 15)
	p.PCReg, p.Mem, p.Stdout = f.Entry, m, io.Discard
	p.TextBase = text.Vaddr
	words := text.Words()
	p.Prog = make([]I, len(words))
	p.Tmpl = make([]Event, len(words))
	for i, w := range words {
		tmpl := &p.Tmpl[i]
		tmpl.PC, tmpl.Word = p.TextBase+uint64(i*4), w
		inst, err := predecode(w, tmpl)
		if err != nil {
			if p.bad == nil {
				p.bad = make(map[uint64]error)
			}
			p.bad[tmpl.PC] = err
			continue
		}
		p.Prog[i] = inst
	}
	return nil
}

// FetchFault returns the error of a fetch at PCReg the predecoded text
// cannot serve, a PC outside the text or a word that failed to
// predecode, and counts it as a fallback.
func (p *Process[I]) FetchFault() error {
	p.fallbacks++
	if err, ok := p.bad[p.PCReg]; ok {
		return fmt.Errorf("%s: decode at %#x: %w", prefixes[p.arch], p.PCReg, err)
	}
	return fmt.Errorf("%s: PC %#x outside text segment", prefixes[p.arch], p.PCReg)
}

// Syscall makes the Linux system call nr with arguments a0 (also the
// result register), a1 and a2: exit halts the process and retires the
// call, write copies a2 bytes at a1 to Stdout, and brk moves the break
// to a0 when that lies in memory and returns it. done reports an exit.
func (p *Process[I]) Syscall(nr uint64, a0 *uint64, a1, a2 uint64) (done bool, err error) {
	switch nr {
	case SysExit:
		p.Halted, p.exitCode = true, int64(*a0)
		p.Retired++
		return true, nil
	case SysWrite:
		buf, err := p.Mem.ReadBytes(a1, int(a2))
		if err != nil {
			return false, err
		}
		n, err := p.Stdout.Write(buf)
		if err != nil {
			return false, err
		}
		*a0 = uint64(n)
	case SysBrk:
		if req := *a0; req != 0 && req >= p.Mem.Base() && req < p.Mem.Base()+p.Mem.Size() {
			p.Mem.SetBrk(req)
		}
		*a0 = p.Mem.Brk()
	default:
		return false, fmt.Errorf("%s: unsupported syscall %d at %#x", prefixes[p.arch], nr, p.PCReg)
	}
	return false, nil
}

// EndBatch ends a StepN batch of n retired instructions: it adds them
// to Retired and returns StepN's results.
func (p *Process[I]) EndBatch(n int, done bool, err error) (int, bool, error) {
	p.Retired += uint64(n)
	return n, done, err
}

// PC returns the current program counter.
func (p *Process[I]) PC() uint64 { return p.PCReg }

// Exited reports whether the program has invoked exit.
func (p *Process[I]) Exited() bool { return p.Halted }

// ExitCode returns the status passed to exit.
func (p *Process[I]) ExitCode() int64 { return p.exitCode }

// Steps returns the number of retired instructions.
func (p *Process[I]) Steps() uint64 { return p.Retired }

// InstAt returns the predecoded instruction at pc, for disassembly.
func (p *Process[I]) InstAt(pc uint64) (I, bool) {
	idx := (pc - p.TextBase) / 4
	if pc < p.TextBase || idx >= uint64(len(p.Prog)) || pc%4 != 0 {
		var zero I
		return zero, false
	}
	return p.Prog[idx], true
}

// PredecodeStats reports predecode-cache coverage and the fetches the
// cache could not serve.
func (p *Process[I]) PredecodeStats() PredecodeStats {
	return PredecodeStats{
		TextWords: uint64(len(p.Prog)),
		BadWords:  uint64(len(p.bad)),
		Fallbacks: p.fallbacks,
	}
}
