// Package isacmp reproduces "An Empirical Comparison of the RISC-V
// and AArch64 Instruction Sets" (Weaver & McIntosh-Smith, SC-W 2023):
// a simulation engine for the scalar AArch64 and RV64G instruction
// sets, a compiler that lowers benchmark kernels with the
// code-generation idioms of GCC 9.2 and GCC 12.2, the paper's five
// workloads, and its four analyses — per-kernel path length, critical
// path, latency-scaled critical path and windowed critical path.
//
// The typical flow is three lines: build (or pick) a workload, compile
// it for a target, and run it with analyses attached:
//
//	prog := isacmp.Workload("stream", isacmp.Small)
//	bin, _ := isacmp.Compile(prog, isacmp.Target{Arch: isacmp.AArch64, Flavor: isacmp.GCC12})
//	res, _ := bin.Analyse(isacmp.Analyses{CritPath: true})
package isacmp

import (
	"fmt"
	"io"
	"math"

	"isacmp/internal/a64"
	"isacmp/internal/cc"
	"isacmp/internal/core"
	"isacmp/internal/elfio"
	"isacmp/internal/ir"
	"isacmp/internal/isa"
	"isacmp/internal/mem"
	"isacmp/internal/report"
	"isacmp/internal/rv64"
	"isacmp/internal/simeng"
	"isacmp/internal/workloads"
)

// Re-exported vocabulary so that callers only import this package.
type (
	// Target is an (architecture, compiler flavour) pair — one column
	// of the paper's tables.
	Target = cc.Target
	// Flavor selects the GCC version whose idioms the compiler
	// reproduces.
	Flavor = cc.Flavor
	// Arch is the instruction-set architecture.
	Arch = isa.Arch
	// Program is an IR benchmark program (see internal/ir to author
	// new ones, or examples/customkernel).
	Program = ir.Program
	// Stats summarises a run: instructions (path length) and cycles.
	Stats = simeng.Stats
	// Event is the per-retired-instruction record streamed to sinks.
	Event = isa.Event
	// Sink consumes the event stream.
	Sink = isa.Sink
	// Scale is a workload problem-size preset.
	Scale = workloads.Scale
	// WindowResult is one point of the Figure 2 series.
	WindowResult = core.WindowResult
	// RegionCount is one row of the Figure 1 per-kernel breakdown.
	RegionCount = core.RegionCount
	// LatencyModel maps instruction groups to execution latencies.
	LatencyModel = simeng.LatencyModel
)

// Architectures.
const (
	AArch64 = isa.AArch64
	RV64    = isa.RV64
)

// Compiler flavours.
const (
	GCC9  = cc.GCC9
	GCC12 = cc.GCC12
)

// Problem-size presets.
const (
	Tiny  = workloads.Tiny
	Small = workloads.Small
	Paper = workloads.Paper
)

// Targets returns the paper's four (architecture, compiler) columns.
func Targets() []Target { return cc.Targets() }

// Workloads returns the names of the paper's five benchmarks.
func Workloads() []string { return workloads.Names() }

// Workload returns a named paper benchmark at the given scale, or nil
// for an unknown name. Names: stream, cloverleaf, minibude, lbm,
// minisweep.
func Workload(name string, s Scale) *Program { return workloads.ByName(name, s) }

// Suite returns all five benchmarks at the given scale.
func Suite(s Scale) []*Program { return workloads.Suite(s) }

// Parameterised workload builders, for problem sizes beyond the
// presets (paper section A.7, experiment customisation).
var (
	// STREAM builds McCalpin's STREAM: n-element arrays, ntimes
	// iterations of the four kernels.
	STREAM = workloads.STREAM
	// CloverLeaf builds the hydro kernel set on an nx x ny grid for
	// `steps` timesteps.
	CloverLeaf = workloads.CloverLeaf
	// MiniBUDE builds the docking energy loop over nposes poses,
	// natlig ligand atoms and natpro protein atoms.
	MiniBUDE = workloads.MiniBUDE
	// LBM builds the d2q9-bgk lattice Boltzmann code on an nx x ny
	// torus for iters timesteps.
	LBM = workloads.LBM
	// Minisweep builds the KBA radiation sweep over nx x ny x nz cells
	// with na angles.
	Minisweep = workloads.Minisweep
)

// TX2Latencies returns the ThunderX2-style latency model used by the
// paper's scaled critical-path analysis (Table 2).
func TX2Latencies() *LatencyModel { return simeng.TX2Latencies() }

// Binary is a compiled, runnable benchmark for one target.
type Binary struct {
	compiled *cc.Compiled
	prog     *ir.Program
	noFMA    bool
}

// Compile lowers a program for the target into a statically linked ELF
// image held in memory.
func Compile(p *Program, t Target) (*Binary, error) {
	c, err := cc.Compile(p, t)
	if err != nil {
		return nil, err
	}
	return &Binary{compiled: c, prog: p}, nil
}

// CompilerOptions disables individual compiler optimisations for
// ablation studies (see cc.Options).
type CompilerOptions = cc.Options

// CompileWithOptions lowers a program with explicit optimisation
// knobs, for measuring what each code-generation idiom contributes.
func CompileWithOptions(p *Program, t Target, opts CompilerOptions) (*Binary, error) {
	c, err := cc.CompileOpts(p, t, opts)
	if err != nil {
		return nil, err
	}
	return &Binary{compiled: c, prog: p, noFMA: opts.NoFMA}, nil
}

// Target reports what the binary was compiled for.
func (b *Binary) Target() Target { return b.compiled.Target }

// ELF returns the ELF image bytes (writable to disk and re-loadable).
func (b *Binary) ELF() []byte { return b.compiled.File.Write() }

// Symbols returns the kernel-region symbols of the binary.
func (b *Binary) Symbols() []elfio.Symbol { return b.compiled.File.Symbols }

// ArrayBase returns the simulated virtual address of a named array.
func (b *Binary) ArrayBase(name string) uint64 { return b.compiled.ArrayBase[name] }

// NewMachine loads the binary into a fresh memory image and returns
// the architectural machine, ready to Step.
func (b *Binary) NewMachine() (simeng.Machine, *mem.Memory, error) {
	m := mem.New(cc.TextBase, b.compiled.MemSize)
	var mach simeng.Machine
	var err error
	switch b.compiled.Target.Arch {
	case isa.AArch64:
		mach, err = a64.NewMachine(b.compiled.File, m)
	case isa.RV64:
		mach, err = rv64.NewMachine(b.compiled.File, m)
	default:
		err = fmt.Errorf("isacmp: unknown architecture %v", b.compiled.Target.Arch)
	}
	if err != nil {
		return nil, nil, err
	}
	return mach, m, nil
}

// Run executes the binary to completion on the emulation core,
// streaming every retired instruction to the sinks.
func (b *Binary) Run(sinks ...Sink) (Stats, error) {
	mach, _, err := b.NewMachine()
	if err != nil {
		return Stats{}, err
	}
	var sink Sink
	switch len(sinks) {
	case 0:
	case 1:
		sink = sinks[0]
	default:
		sink = isa.MultiSink(sinks)
	}
	return (&simeng.EmulationCore{}).Run(mach, sink)
}

// Disassemble renders the instructions of the named kernel region, one
// per line, in the target's conventional assembly syntax — the tool
// behind the paper's Listings 1 and 2.
func (b *Binary) Disassemble(kernel string, w io.Writer) error {
	var sym *elfio.Symbol
	for i := range b.compiled.File.Symbols {
		if b.compiled.File.Symbols[i].Name == kernel {
			sym = &b.compiled.File.Symbols[i]
			break
		}
	}
	if sym == nil {
		return fmt.Errorf("isacmp: no kernel %q in binary", kernel)
	}
	var text []byte
	var textBase uint64
	for _, seg := range b.compiled.File.Segments {
		if seg.Flags&elfio.PFX != 0 {
			text, textBase = seg.Data, seg.Vaddr
		}
	}
	for pc := sym.Value; pc < sym.Value+sym.Size; pc += 4 {
		off := pc - textBase
		word := uint32(text[off]) | uint32(text[off+1])<<8 |
			uint32(text[off+2])<<16 | uint32(text[off+3])<<24
		var line string
		if b.compiled.Target.Arch == isa.AArch64 {
			inst, err := a64.Decode(word)
			if err != nil {
				return err
			}
			line = inst.String()
		} else {
			inst, err := rv64.Decode(word)
			if err != nil {
				return err
			}
			line = inst.String()
		}
		if _, err := fmt.Fprintf(w, "%#08x: %s\n", pc, line); err != nil {
			return err
		}
	}
	return nil
}

// Analyses selects which of the paper's analyses to run in one pass.
type Analyses struct {
	// PathLength produces the Figure 1 per-kernel breakdown.
	PathLength bool
	// CritPath produces the Table 1 critical path / ILP / runtime.
	CritPath bool
	// ScaledCritPath produces the Table 2 latency-weighted variant.
	ScaledCritPath bool
	// Windowed produces the Figure 2 mean-ILP-per-window series; nil
	// WindowSizes selects the paper's sizes. WindowStride overrides the
	// 50% overlap (0 keeps the paper's size/2) — the knob the paper
	// describes as commit-width modelling and leaves unexplored.
	Windowed     bool
	WindowSizes  []int
	WindowStride int
	// Mix produces the per-group instruction histogram.
	Mix bool
	// Branches produces the branch-density profile (the section 3.3
	// branch accounting).
	Branches bool
	// DepDistances measures producer→consumer distances, the quantity
	// behind the paper's Figure 2 small-window interpretation.
	DepDistances bool
	// Latencies overrides the TX2 model for the scaled analysis.
	Latencies *LatencyModel
}

// GroupCount is one instruction-mix histogram row.
type GroupCount = core.GroupCount

// Result carries whichever analyses were requested.
type Result struct {
	Target Target
	Stats  Stats

	// Regions is the per-kernel instruction breakdown (PathLength).
	Regions []RegionCount
	// OtherInstructions counts instructions outside named kernels.
	OtherInstructions uint64

	// CP, ILP and RuntimeSeconds are the Table 1 metrics.
	CP             uint64
	ILP            float64
	RuntimeSeconds float64

	// ScaledCP, ScaledILP and ScaledRuntimeSeconds are the Table 2
	// metrics.
	ScaledCP             uint64
	ScaledILP            float64
	ScaledRuntimeSeconds float64

	// Windows is the Figure 2 series.
	Windows []WindowResult

	// MixCounts is the per-group instruction histogram.
	MixCounts []GroupCount
	// BranchCount, BranchDensity and BranchTakenRate summarise control
	// flow.
	BranchCount     uint64
	BranchDensity   float64
	BranchTakenRate float64

	// MeanDepDistance is the mean producer→consumer distance in
	// instructions; ShortDepFraction16 the fraction of dependency
	// edges shorter than 16 instructions (tight locality).
	MeanDepDistance    float64
	ShortDepFraction16 float64
}

// Analyse runs the binary once with the selected analyses attached:
// the sinks the matrix runner attaches for the same selection (see
// report.NewAnalysisSet), plus DepDistance, which only this API runs.
func (b *Binary) Analyse(sel Analyses) (*Result, error) {
	if err := core.ValidateWindows(sel.WindowSizes, sel.WindowStride); err != nil {
		return nil, fmt.Errorf("isacmp: %w", err)
	}
	set := report.NewAnalysisSet(report.Experiment{
		PathLength: sel.PathLength, CritPath: sel.CritPath, Scaled: sel.ScaledCritPath,
		Windowed: sel.Windowed, WindowSizes: sel.WindowSizes, WindowStride: sel.WindowStride,
		Mix: sel.Mix || sel.Branches, Latencies: sel.Latencies,
	}, b.compiled)
	sinks := set.Sinks()
	var dd *core.DepDistance
	if sel.DepDistances {
		dd = core.NewDepDistance()
		sinks = append(sinks, dd)
	}
	stats, err := b.Run(sinks...)
	if err != nil {
		return nil, err
	}
	var row report.Row
	set.Fill(&row)
	res := &Result{
		Target: b.compiled.Target, Stats: stats,
		Regions: row.Regions, OtherInstructions: row.Other,
		CP: row.CP, ILP: row.ILP, RuntimeSeconds: row.Runtime,
		ScaledCP: row.ScaledCP, ScaledILP: row.ScaledILP, ScaledRuntimeSeconds: row.ScaledRuntime,
		Windows:     row.Windows,
		MixCounts:   row.MixCounts,
		BranchCount: row.Branches, BranchDensity: row.BranchDensity, BranchTakenRate: row.BranchTaken,
	}
	if dd != nil {
		res.MeanDepDistance = dd.Mean()
		res.ShortDepFraction16 = dd.ShortFraction(16)
	}
	return res, nil
}

// Verify runs the binary and compares every program array against the
// host reference interpreter, bit for bit. It is how the test suite
// (and the quickstart example) proves simulated execution is correct.
func (b *Binary) Verify() error {
	ref := ir.NewInterp(b.prog)
	ref.NoFMA = b.noFMA
	if err := ref.Run(); err != nil {
		return fmt.Errorf("isacmp: reference run: %w", err)
	}
	mach, m, err := b.NewMachine()
	if err != nil {
		return err
	}
	if _, err := (&simeng.EmulationCore{}).Run(mach, nil); err != nil {
		return err
	}
	for _, arr := range b.prog.Arrays {
		base := b.compiled.ArrayBase[arr.Name]
		for i := 0; i < arr.Len; i++ {
			bits, err := m.Read64(base + uint64(i)*8)
			if err != nil {
				return err
			}
			if arr.Elem == ir.F64 {
				want := f64bits(ref.ArrF[arr.Name][i])
				if bits != want {
					return fmt.Errorf("isacmp: %s: %s[%d] differs from reference", b.compiled.Target, arr.Name, i)
				}
			} else if int64(bits) != ref.ArrI[arr.Name][i] {
				return fmt.Errorf("isacmp: %s: %s[%d] differs from reference", b.compiled.Target, arr.Name, i)
			}
		}
	}
	return nil
}

func f64bits(v float64) uint64 { return math.Float64bits(v) }

// Workload-authoring surface: aliases over the IR so new benchmarks
// can be written against this package alone (see examples/customkernel).
type (
	// Var is a scalar local variable of a kernel.
	Var = ir.Var
	// Array is a program global array.
	Array = ir.Array
	// Kernel is a named code region (the Figure 1 attribution unit).
	Kernel = ir.Kernel
	// Expr is a typed IR expression.
	Expr = ir.Expr
	// Stmt is an IR statement.
	Stmt = ir.Stmt
	// Loop is a counted loop statement.
	Loop = ir.Loop
	// Store writes an array element.
	Store = ir.Store
	// Assign sets a scalar local.
	Assign = ir.Assign
	// If is a conditional statement.
	If = ir.If
	// BinOp names a binary operator for B2.
	BinOp = ir.BinOp
	// SinkFunc adapts a function to the Sink interface.
	SinkFunc = isa.SinkFunc
)

// IR value types and comparison operators re-exported for authoring.
const (
	I64 = ir.I64
	F64 = ir.F64

	OpLt  = ir.Lt
	OpLe  = ir.Le
	OpEq  = ir.Eq
	OpNe  = ir.Ne
	OpGt  = ir.Gt
	OpGe  = ir.Ge
	OpRem = ir.Rem
	OpMin = ir.Min
	OpMax = ir.Max
)

// NewProgram starts an empty benchmark program.
func NewProgram(name string) *Program { return ir.NewProgram(name) }

// NewVar declares a scalar local variable.
func NewVar(name string, t ir.Type) *Var { return ir.NewVar(name, t) }

// Expression constructors (see the ir package for semantics).
var (
	// CI builds an integer constant.
	CI = ir.CI
	// CF builds a float constant.
	CF = ir.CF
	// V reads a variable.
	V = ir.V
	// Ld reads an array element.
	Ld = ir.Ld
	// AddE, SubE, MulE, DivE are arithmetic constructors.
	AddE = ir.AddE
	SubE = ir.SubE
	MulE = ir.MulE
	DivE = ir.DivE
	// NegE negates; SqrtE takes a square root.
	NegE  = ir.NegE
	SqrtE = ir.SqrtE
	// B2 applies any binary operator (comparisons yield i64 0/1).
	B2 = ir.B2
	// I2F and F2I convert between the two value types.
	I2F = ir.I2F
	F2I = ir.F2I
)

// InOrderModel and OoOModel re-export the finite-resource timing
// models (the paper's target microarchitectures and its section 8
// future work).
type (
	// InOrderModel is a dual-issue in-order pipeline timing model
	// (Cortex-A55 / SiFive-7 class).
	InOrderModel = simeng.InOrderModel
	// OoOModel is a superscalar out-of-order timing model with a
	// finite reorder buffer (ThunderX2 class).
	OoOModel = simeng.OoOModel
)

// Cache is the set-associative data-cache timing model the finite-
// resource cores can be configured with.
type Cache = simeng.Cache

// NewL1D returns a 32 KiB 8-way L1D model with a 20-cycle miss penalty.
func NewL1D() *Cache { return simeng.NewL1D() }

// ParseLatencyConfig reads a SimEng-style "group: latency" core
// description, overriding the base model (nil base = TX2).
func ParseLatencyConfig(r io.Reader, base *LatencyModel) (*LatencyModel, error) {
	return simeng.ParseLatencyConfig(r, base)
}

// NewInOrderModel returns the default dual-issue in-order model.
func NewInOrderModel() *InOrderModel { return simeng.NewInOrderModel() }

// NewOoOModel returns the default 4-wide, 128-entry-ROB model.
func NewOoOModel() *OoOModel { return simeng.NewOoOModel() }

// RunInOrder executes the binary with the in-order timing model
// attached and returns its cycle accounting.
func (b *Binary) RunInOrder() (Stats, error) {
	m := simeng.NewInOrderModel()
	if _, err := b.Run(m); err != nil {
		return Stats{}, err
	}
	return m.Stats(), nil
}

// RunOoO executes the binary with the out-of-order timing model
// attached (optionally overriding width/ROB via the model fields) and
// returns its cycle accounting.
func (b *Binary) RunOoO(model *OoOModel) (Stats, error) {
	if model == nil {
		model = simeng.NewOoOModel()
	}
	if _, err := b.Run(model); err != nil {
		return Stats{}, err
	}
	return model.Stats(), nil
}
