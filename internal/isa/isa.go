// Package isa defines the architecture-neutral vocabulary shared by the
// AArch64 and RV64G front ends and by every analysis: register
// identifiers, instruction groups (latency classes) and the per-retired
// instruction execution record that cores stream to analyses. It also
// holds the ISA-independent half of both machines (Process): the ELF
// image an assembler builds, the loader and its predecoded text, and
// the Linux system calls.
//
// Both ISAs map their architectural registers into one flat register
// space so that analyses such as the critical-path tracker can index a
// single dense array:
//
//	[0,32)   integer registers x0..x31 (AArch64: X0..X30 + SP/XZR slot)
//	[32,64)  floating-point registers f0..f31 / d0..d31
//	64       the AArch64 NZCV flags pseudo-register
//
// The RISC-V zero register and the AArch64 zero register are never
// reported in an Event's source or destination lists: reads from them
// break dependency chains and writes to them are discarded, exactly as
// in the paper's critical-path method (section 4.1).
package isa

import (
	"fmt"
	"unsafe"
)

// Arch identifies one of the two instruction sets under study.
type Arch uint8

// The two architectures compared by the paper.
const (
	AArch64 Arch = iota
	RV64
)

// String returns the conventional name of the architecture.
func (a Arch) String() string {
	switch a {
	case AArch64:
		return "AArch64"
	case RV64:
		return "RISC-V"
	default:
		return fmt.Sprintf("Arch(%d)", uint8(a))
	}
}

// Reg is a flat register identifier covering both register files plus
// the flags pseudo-register. See the package comment for the layout.
type Reg uint8

// NumRegs is the size of the flat register space; dependence trackers
// can use it to size dense arrays indexed by Reg.
const NumRegs = 65

// RegNZCV is the AArch64 condition-flags pseudo-register. Instructions
// that set flags (SUBS, CMP, FCMP, ...) list it as a destination;
// conditionally executing instructions (B.cond, CSEL, FCSEL) list it as
// a source. RV64G has no flags register.
const RegNZCV Reg = 64

// IntReg returns the flat identifier of integer register i (0..31).
func IntReg(i uint8) Reg { return Reg(i) }

// FPReg returns the flat identifier of floating-point register i (0..31).
func FPReg(i uint8) Reg { return Reg(32 + i) }

// IsInt reports whether r names an integer register.
func (r Reg) IsInt() bool { return r < 32 }

// IsFP reports whether r names a floating-point register.
func (r Reg) IsFP() bool { return r >= 32 && r < 64 }

// Index returns the architectural index of the register within its file.
func (r Reg) Index() uint8 {
	if r.IsFP() {
		return uint8(r - 32)
	}
	return uint8(r)
}

// String renders the flat register in a neutral syntax (x5, f12, nzcv).
func (r Reg) String() string {
	switch {
	case r.IsInt():
		return fmt.Sprintf("x%d", r.Index())
	case r.IsFP():
		return fmt.Sprintf("f%d", r.Index())
	case r == RegNZCV:
		return "nzcv"
	default:
		return fmt.Sprintf("reg(%d)", uint8(r))
	}
}

// Group is an instruction latency class, mirroring the instruction
// grouping SimEng performs at decode to assign execution latencies from
// a core-description file. The scaled critical-path analysis (paper
// section 5) weights each instruction by its group's latency.
type Group uint8

// Instruction groups. The division is the minimum needed to express a
// ThunderX2-style latency table for the scalar subsets under study.
const (
	// GroupIntSimple covers single-cycle integer ALU work: add, sub,
	// logical ops, shifts, compares, register moves, address generation.
	GroupIntSimple Group = iota
	// GroupIntMul covers integer multiplication (MUL, MADD, MULW...).
	GroupIntMul
	// GroupIntDiv covers integer division and remainder.
	GroupIntDiv
	// GroupLoad covers all memory reads, integer and FP.
	GroupLoad
	// GroupStore covers all memory writes, integer and FP.
	GroupStore
	// GroupBranch covers direct and indirect branches, taken or not.
	GroupBranch
	// GroupFPSimple covers FP moves, sign manipulation, min/max and
	// compares.
	GroupFPSimple
	// GroupFPAdd covers FP addition and subtraction.
	GroupFPAdd
	// GroupFPMul covers FP multiplication.
	GroupFPMul
	// GroupFPFMA covers fused multiply-add families.
	GroupFPFMA
	// GroupFPDiv covers FP division.
	GroupFPDiv
	// GroupFPSqrt covers FP square root.
	GroupFPSqrt
	// GroupFPCvt covers conversions between FP formats and between FP
	// and integer registers.
	GroupFPCvt
	// GroupSystem covers system calls and hints.
	GroupSystem

	// NumGroups is the number of instruction groups.
	NumGroups
)

var groupNames = [NumGroups]string{
	"int-simple", "int-mul", "int-div", "load", "store", "branch",
	"fp-simple", "fp-add", "fp-mul", "fp-fma", "fp-div", "fp-sqrt",
	"fp-cvt", "system",
}

// String returns a short lower-case name for the group.
func (g Group) String() string {
	if int(g) < len(groupNames) {
		return groupNames[g]
	}
	return fmt.Sprintf("group(%d)", uint8(g))
}

// NoReg names no register. AddSrc and AddDst skip it, so a front end
// maps its zero register to NoReg and records every operand field
// unconditionally.
const NoReg Reg = 255

// Event is the execution record emitted for every retired instruction.
// It carries exactly the information the paper's analyses consume: the
// PC (for region attribution), the register sources and destinations
// (for register RAW chains), the memory addresses touched (for memory
// RAW chains) and the latency group. Events are reused by cores;
// consumers must not retain pointers beyond the callback.
//
// Most of an event is a property of the instruction word: PC, Word,
// Group, the register operands, the access sizes, Branch, and Taken
// for an unconditional branch. The loader fills one template of that
// static half per text word (Process.Tmpl), and a core's StepN copies
// the template into the event and writes only the access addresses
// and a conditional branch's Taken.
type Event struct {
	// PC is the address of the retired instruction.
	PC uint64
	// Word is the raw 32-bit encoding, useful for disassembly in
	// diagnostics.
	Word uint32
	// Group is the latency class assigned at decode.
	Group Group

	// Srcs lists the architectural register sources (zero registers
	// excluded); only the first NSrcs entries are valid.
	Srcs [4]Reg
	// Dsts lists the architectural register destinations (zero
	// registers excluded); only the first NDsts entries are valid.
	Dsts [2]Reg
	// NSrcs and NDsts give the number of valid entries in Srcs/Dsts.
	NSrcs, NDsts uint8

	// LoadAddr/LoadSize describe a memory read performed by the
	// instruction (LoadSize==0 means no read). Pair loads report the
	// full byte span. Each address below is meaningful only when its
	// size is non-zero; a consumer must not read one whose size is 0.
	LoadAddr uint64
	// Load2Addr/Load2Size describe a second, possibly discontiguous
	// memory read. Cores never emit one; the macro-op fusion pass
	// (internal/fusion) uses the slot when it merges two loads into one
	// fused event, so memory RAW chains through both accesses survive
	// the merge. The field order here keeps the struct at 56 bytes —
	// the three addresses group ahead of the byte-wide fields so no
	// padding is added.
	Load2Addr uint64
	// StoreAddr/StoreSize describe a memory write, as above.
	StoreAddr uint64
	LoadSize  uint8
	Load2Size uint8
	StoreSize uint8

	// Branch reports whether the instruction is a control-flow
	// instruction, and Taken whether it redirected the PC.
	Branch bool
	Taken  bool

	// Fused is the number of architectural instructions this event
	// stands for beyond the usual one: 0 on every core-emitted event,
	// 2 on an event the fusion pass merged from an adjacent pair (the
	// second instruction retired at PC+4).
	Fused uint8
}

// AddSrc appends a register source unless it is NoReg or Srcs is
// full.
func (e *Event) AddSrc(r Reg) {
	if r != NoReg && e.NSrcs < uint8(len(e.Srcs)) {
		e.Srcs[e.NSrcs] = r
		e.NSrcs++
	}
}

// AddDst appends a register destination unless it is NoReg or Dsts is
// full.
func (e *Event) AddDst(r Reg) {
	if r != NoReg && e.NDsts < uint8(len(e.Dsts)) {
		e.Dsts[e.NDsts] = r
		e.NDsts++
	}
}

// Sink consumes the per-instruction event stream produced by a core.
// Analyses, timing models and tracers implement Sink. The stream
// arrives in batches, each in one Events call: the run loop's StepN
// batches, the fusion pass's rewritten ones, and the same batches
// forwarded by the tee, MultiSink and the fan-out. A sink keeps one
// body: Event is Events over a batch of One, or, for a sink that works
// one event at a time, Events loops over Event.
//
// Event lifetime contract: cores reuse one batch buffer across the
// whole run, so the slice and its events are invalid the moment Events
// returns — the next batch overwrites them. They are shared read-only
// with other consumers: a sink must not mutate them, and one that
// needs a record later must copy the struct (it is a plain value;
// assignment suffices). Retaining a pointer is a bug even on the
// single-goroutine path, and under the fan-out engine it is
// additionally a data race.
type Sink interface {
	// Events observes a batch of retired instructions in retirement
	// order.
	Events(evs []Event)
	// Event observes one retired instruction: Events over a batch of
	// one. The pointed-to Event is only valid for the duration of the
	// call.
	Event(ev *Event)
}

// One returns ev as a one-event batch, without copying it.
func One(ev *Event) []Event { return unsafe.Slice(ev, 1) }

// DeliverBatch hands a batch to s. A nil s is a no-op.
func DeliverBatch(s Sink, evs []Event) {
	if s != nil {
		s.Events(evs)
	}
}

// SinkFunc adapts a per-event function to the Sink interface.
type SinkFunc func(ev *Event)

// Event calls f(ev).
func (f SinkFunc) Event(ev *Event) { f(ev) }

// Events calls f on each event in order.
func (f SinkFunc) Events(evs []Event) {
	for i := range evs {
		f(&evs[i])
	}
}

// MultiSink fans one event stream out to several sinks in order.
type MultiSink []Sink

// Event forwards ev to every sink in the slice.
func (m MultiSink) Event(ev *Event) { m.Events(One(ev)) }

// Events forwards the batch to every sink in the slice.
func (m MultiSink) Events(evs []Event) {
	for _, s := range m {
		s.Events(evs)
	}
}

// PredecodeStats describes the predecode cache of a machine: the
// static text segment is decoded once at construction, so the
// steady-state fetch path is an array index. Coverage is
// TextWords-BadWords out of TextWords; Fallbacks counts the fetches
// the cache could not serve.
type PredecodeStats struct {
	// TextWords is the number of 32-bit words in the predecoded text
	// segment.
	TextWords uint64
	// BadWords is the number of text words that failed to predecode
	// (data or padding islands inside the text segment). They fault
	// only if executed.
	BadWords uint64
	// Fallbacks counts fetches the predecode cache could not serve: a
	// PC outside the text segment or a bad word reached by execution.
	// Both surface as errors from Step — nothing executes undecoded.
	Fallbacks uint64
}

// PredecodeStatsSource is implemented by machines that predecode
// their text segment.
type PredecodeStatsSource interface {
	PredecodeStats() PredecodeStats
}
