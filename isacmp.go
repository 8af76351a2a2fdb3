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
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"time"

	"isacmp/internal/a64"
	"isacmp/internal/cc"
	"isacmp/internal/core"
	"isacmp/internal/durable"
	"isacmp/internal/elfio"
	"isacmp/internal/fusion"
	"isacmp/internal/ir"
	"isacmp/internal/isa"
	"isacmp/internal/mem"
	"isacmp/internal/obs"
	"isacmp/internal/obs/slogx"
	"isacmp/internal/report"
	"isacmp/internal/rv64"
	"isacmp/internal/sched"
	"isacmp/internal/simeng"
	"isacmp/internal/telemetry"
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
	// FusionConfig configures the macro-op fusion pass: which
	// architectures it rewrites and which rules apply (see
	// internal/fusion). The zero value is fusion off.
	FusionConfig = fusion.Config
	// FusionStats is the manifest fusion block: spec, raw and fused
	// event counts, per-rule hits.
	FusionStats = telemetry.FusionStats
)

// ParseFusionSpec parses -fusion flag syntax
// ("off", "rv64", "both:loadpair,slliadd", ...) into a FusionConfig.
var ParseFusionSpec = fusion.ParseSpec

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

// analysisSet is the bundle of analysis sinks one Analyses selection
// builds, shared by Analyse and RunInstrumented.
type analysisSet struct {
	names []string
	sinks []Sink

	pl      *core.PathLength
	cp, scp *core.CritPath
	win     core.WindowAnalyzer
	mix     *core.Mix
	br      *core.BranchProfile
	dd      *core.DepDistance
}

func (a *analysisSet) add(name string, s Sink) {
	a.names = append(a.names, name)
	a.sinks = append(a.sinks, s)
}

// newAnalysisSet builds the sinks for one Analyses selection. parallel
// is the resolved worker count: above 1 the windowed analysis uses the
// sharded implementation on that many shards (bit-identical results,
// see internal/core), and the caller must close the set.
func (b *Binary) newAnalysisSet(sel Analyses, parallel int) *analysisSet {
	a := &analysisSet{}
	if sel.PathLength {
		a.pl = core.NewPathLength(b.compiled.File.Symbols)
		a.add("pathlen", a.pl)
	}
	// Asked for Table 1 and Table 2, one tracker walks the events once
	// for both (cp == scp); its row carries the joint pass's time.
	lat := sel.Latencies
	if lat == nil {
		lat = simeng.TX2Latencies()
	}
	switch {
	case sel.CritPath && sel.ScaledCritPath:
		a.cp = core.NewJointCritPath(lat)
		a.scp = a.cp
	case sel.CritPath:
		a.cp = core.NewCritPath()
	case sel.ScaledCritPath:
		a.scp = core.NewScaledCritPath(lat)
	}
	if a.cp != nil {
		a.cp.SetDenseRange(cc.TextBase, b.compiled.MemSize)
		a.add("critpath", a.cp)
	}
	if a.scp != nil && a.scp != a.cp {
		a.scp.SetDenseRange(cc.TextBase, b.compiled.MemSize)
		a.add("scaledcp", a.scp)
	}
	if sel.Windowed {
		sizes := sel.WindowSizes
		if sizes == nil {
			sizes = core.PaperWindowSizes()
		}
		if parallel > 1 {
			a.win = core.NewShardedWindowedCP(sizes, sel.WindowStride, parallel)
		} else {
			a.win = core.NewWindowedCritPathStride(sizes, sel.WindowStride)
		}
		a.add("windowcp", a.win)
	}
	if sel.Mix {
		a.mix = core.NewMix()
		a.add("mix", a.mix)
	}
	if sel.Branches {
		a.br = core.NewBranchProfile(nil)
		a.add("branch", a.br)
	}
	if sel.DepDistances {
		a.dd = core.NewDepDistance()
		a.add("depdist", a.dd)
	}
	return a
}

// close stops a sharded windowed analysis that collect never reached:
// a run that fails returns before it.
func (a *analysisSet) close() {
	if s, ok := a.win.(*core.ShardedWindowedCP); ok {
		s.Close()
	}
}

// collect copies the analysis outputs into res.
func (a *analysisSet) collect(res *Result) {
	if a.pl != nil {
		res.Regions = a.pl.Counts()
		res.OtherInstructions = a.pl.Other()
	}
	if a.cp != nil {
		res.CP = a.cp.CP()
		res.ILP = a.cp.ILP()
		res.RuntimeSeconds = a.cp.RuntimeSeconds()
	}
	if a.scp != nil {
		res.ScaledCP = a.scp.ScaledCP()
		res.ScaledILP = a.scp.ScaledILP()
		res.ScaledRuntimeSeconds = a.scp.ScaledRuntimeSeconds()
	}
	if a.win != nil {
		res.Windows = a.win.Results()
	}
	if a.mix != nil {
		res.MixCounts = a.mix.Counts()
	}
	if a.br != nil {
		res.BranchCount = a.br.Branches()
		res.BranchDensity = a.br.Density()
		res.BranchTakenRate = a.br.TakenRate()
	}
	if a.dd != nil {
		res.MeanDepDistance = a.dd.Mean()
		res.ShortDepFraction16 = a.dd.ShortFraction(16)
	}
}

// Analyse runs the binary once with the selected analyses attached.
func (b *Binary) Analyse(sel Analyses) (*Result, error) {
	if err := core.ValidateWindows(sel.WindowSizes, sel.WindowStride); err != nil {
		return nil, fmt.Errorf("isacmp: %w", err)
	}
	res := &Result{Target: b.compiled.Target}
	as := b.newAnalysisSet(sel, 1)
	stats, err := b.Run(as.sinks...)
	if err != nil {
		return nil, err
	}
	res.Stats = stats
	as.collect(res)
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

// Observability surface (see internal/telemetry): a metrics registry
// with JSON snapshots, an instrumented tee sink, a sampled pipeline
// tracer, run manifests for machine-readable artifacts, and a stderr
// progress heartbeat.
type (
	// MetricsRegistry holds named counters, gauges and histograms.
	MetricsRegistry = telemetry.Registry
	// MetricsSnapshot is a point-in-time copy of a registry.
	MetricsSnapshot = telemetry.Snapshot
	// RunManifest is the machine-readable record of an invocation.
	RunManifest = telemetry.Manifest
	// RunRecord is one simulated execution inside a manifest.
	RunRecord = telemetry.RunRecord
	// SinkOverhead is the tee's per-analysis cost accounting.
	SinkOverhead = telemetry.SinkStats
	// PipelineTrace records sampled per-instruction pipeline timing
	// and writes Chrome-trace JSON.
	PipelineTrace = telemetry.PipelineTrace
	// PipelineStats is the uniform per-core stat block (shared
	// instructions/cycles base plus model-specific counters).
	PipelineStats = simeng.PipelineStats
)

// NewMetricsRegistry returns an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return telemetry.NewRegistry() }

// NewRunManifest starts a manifest for the named command; call
// Finish, then Encode or WriteFile.
func NewRunManifest(command, scale string) *RunManifest {
	return telemetry.NewManifest(command, scale)
}

// NewPipelineTrace returns a tracer holding at most capacity spans,
// recording every sample-th instruction (0 or 1 records all).
func NewPipelineTrace(capacity int, sample uint64) *PipelineTrace {
	return telemetry.NewPipelineTrace(capacity, sample)
}

// Live control-plane surface (see internal/obs): an embedded HTTP
// server exposing /metrics (Prometheus text), /statusz (live matrix
// state), /events (SSE cell lifecycle stream), health probes and
// pprof; a per-run status board; and a per-cell flight recorder that
// dumps a post-mortem when a cell dies.
type (
	// StatusBoard tracks live per-cell matrix state; drive it via
	// MatrixExperiment.Status or RunConfig.Status and serve it with
	// StartObsServer. All methods are nil-receiver-safe.
	StatusBoard = obs.Board
	// CellEvent is one cell lifecycle transition on the /events stream.
	CellEvent = obs.Event
	// StatusDoc is the JSON document /statusz serves.
	StatusDoc = obs.StatusDoc
	// ObsServer is the embedded observability HTTP server.
	ObsServer = obs.Server
	// ObsServerConfig configures StartObsServer.
	ObsServerConfig = obs.ServerConfig
	// FlightRecorder is the bounded per-cell ring of retired events
	// dumped as a post-mortem on cell death.
	FlightRecorder = obs.Recorder
	// Postmortem is the flight recorder's crash-dump artifact.
	Postmortem = obs.Postmortem
)

// NewRunID returns a fresh run identifier (UTC timestamp plus random
// suffix) used to join logs, manifests, post-mortems and /statusz.
func NewRunID() string { return obs.NewRunID() }

// NewStatusBoard returns a board for one run; reg may be nil.
func NewStatusBoard(runID string, reg *MetricsRegistry) *StatusBoard {
	return obs.NewBoard(runID, reg)
}

// StartObsServer starts the observability HTTP server. It shuts down
// when ctx is cancelled or Close is called, whichever comes first.
func StartObsServer(ctx context.Context, cfg ObsServerConfig) (*ObsServer, error) {
	return obs.StartServer(ctx, cfg)
}

// WritePrometheusText renders a metrics snapshot in the Prometheus
// text exposition format (what /metrics serves).
func WritePrometheusText(w io.Writer, snap MetricsSnapshot) error {
	return obs.WritePrometheus(w, snap)
}

// NewLogger builds the leveled structured logger the CLIs use. level
// is debug/info/warn/error; format is text or json (JSONL).
func NewLogger(w io.Writer, level, format string) (*slog.Logger, error) {
	return slogx.New(w, level, format)
}

// RunConfig configures an instrumented run.
type RunConfig struct {
	// Core selects the timing model: "emulation" (default),
	// "inorder" or "ooo".
	Core string
	// Cache attaches a default L1D model to the inorder/ooo cores.
	Cache bool
	// Analyses selects paper analyses to attach to the same run.
	Analyses Analyses
	// Metrics, when non-nil, receives the standard run counters.
	Metrics *MetricsRegistry
	// Trace, when non-nil, records pipeline timing from the core.
	Trace *PipelineTrace
	// Progress, when non-nil, receives heartbeat lines during the run
	// and a final line after it. When Log is also set the heartbeat is
	// routed through the logger as info-level records, so a logger at
	// the error level silences it.
	Progress io.Writer
	// ProgressFinalOnly suppresses the periodic heartbeat lines and
	// keeps only the final summary (set when stderr is not a
	// terminal).
	ProgressFinalOnly bool
	// SamplePeriod overrides the tee's overhead-timing interval.
	SamplePeriod uint64
	// Parallel selects the analysis engine: 1 runs every sink through
	// the sequential instrumented tee; above 1 the trace is simulated
	// once and fanned out to the sinks concurrently, with the windowed
	// critical-path computation itself sharded over that many workers.
	// 0 or negative selects GOMAXPROCS. Analysis results are identical
	// for every value — only per-sink overhead sampling (a telemetry
	// artifact, zeroed by manifest canonicalization) differs.
	Parallel int
	// Fusion configures the macro-op fusion pass interposed between
	// the core and the analyses, so every attached analysis sees the
	// fused machine's event stream. The zero value is fusion off: no
	// adapter is constructed and results are byte-identical to a run
	// without the feature.
	Fusion FusionConfig
	// Ctx, when non-nil, is polled by the core; an expired or cancelled
	// context reaps the run with an ErrDeadline-kind error (the CLI's
	// -cell-timeout).
	Ctx context.Context
	// MaxInstructions is the retirement budget; exceeding it fails the
	// run with an ErrBudget-kind error. 0 disables the budget.
	MaxInstructions uint64

	// Log, when non-nil, receives structured lifecycle lines for the
	// run, scoped with the cell identity (workload, target, attempt).
	Log *slog.Logger
	// RunID stamps post-mortem artifacts; see NewRunID.
	RunID string
	// Attempt is the 1-based retry attempt recorded in logs and
	// post-mortems (0 is treated as 1).
	Attempt int
	// Status, when non-nil, sees the run's retired count advance live
	// (serve it with StartObsServer). Pure observer: analysis results
	// are byte-identical with or without it.
	Status *StatusBoard
	// ServeAddr, when non-empty, serves the observability endpoints
	// (/metrics, /statusz, /events, health, pprof) for the duration of
	// this run, on Metrics and Status. The server follows Ctx: a
	// cancelled run tears it down with no goroutines left behind.
	ServeAddr string
	// FlightDir, when non-empty, arms a flight recorder: the last
	// FlightEvents retired events are kept in a ring and dumped to
	// FlightDir as a post-mortem JSON if the run fails.
	FlightDir string
	// FlightEvents is the recorder ring capacity (0 selects the
	// default).
	FlightEvents int

	// Durability (see internal/durable and DESIGN.md §6).
	//
	// DurableDir, when non-empty, arms the crash-safety layer for this
	// run alone: a write-ahead journal plus content-addressed result
	// cache opened under the directory for the duration of the call.
	// Drivers sharing one journal across many cells should open a
	// handle with OpenDurable and set Durable instead.
	DurableDir string
	// Resume replays DurableDir's existing journal instead of starting
	// a fresh one — the API form of the -resume flag. Ignored when
	// Durable is set (the handle already encodes how it was opened).
	Resume bool
	// Durable, when non-nil, is the crash-safety handle this run is
	// served from and journals into: if an identical run (same
	// workload, compiled code, core model, analysis and fusion spec,
	// engine version) already retired, its record is replayed — the
	// Result is then nil and the RunRecord carries the original
	// analysis block and counter delta. Runs recording a pipeline
	// trace (Trace != nil) are never served or journaled: a trace
	// cannot be replayed from cache.
	Durable *DurableRun
}

// RunInstrumented executes the binary once with full telemetry: the
// selected analyses and timing model observe the run through an
// instrumented tee (so each sink's overhead is accounted), and the
// returned RunRecord carries the uniform core stats, retire rate,
// per-sink overhead, tracker footprint and analysis results — ready
// to append to a RunManifest. The Result carries the same analysis
// outputs in their native form.
func (b *Binary) RunInstrumented(cfg RunConfig) (*Result, RunRecord, error) {
	workload, target := b.prog.Name, b.compiled.Target.String()
	rec := RunRecord{Workload: workload, Target: target}
	if err := core.ValidateWindows(cfg.Analyses.WindowSizes, cfg.Analyses.WindowStride); err != nil {
		return nil, rec, fmt.Errorf("isacmp: %w", err)
	}
	mach, _, err := b.NewMachine()
	if err != nil {
		return nil, rec, err
	}

	attempt := cfg.Attempt
	if attempt < 1 {
		attempt = 1
	}

	// Crash-safety layer: content-address the run and serve it from
	// the replayed journal or content cache when an identical run
	// already retired; otherwise journal cell-started now and the
	// canonical record when it retires.
	drun := cfg.Durable
	if drun == nil && cfg.DurableDir != "" {
		opened, derr := OpenDurable(cfg.DurableDir, cfg.Resume)
		if derr != nil {
			return nil, rec, derr
		}
		drun = opened
		defer opened.Close()
	}
	dhash := ""
	if drun != nil && cfg.Trace == nil {
		dhash = durable.KeyInput{
			Engine:   durable.EngineVersion,
			Workload: workload,
			Target:   target,
			Code:     b.ELF(),
			Analysis: runSpec(cfg),
			Fusion:   cfg.Fusion.Spec(),
		}.Hash()
		if hit := drun.Lookup(workload, target, dhash); hit != nil && !hit.Failed {
			var served RunRecord
			if jerr := json.Unmarshal(hit.Payload, &served); jerr == nil &&
				served.Workload == workload && served.Target == target {
				telemetry.ApplyCounters(cfg.Metrics, served.Counters)
				if hit.Source == "cache" {
					drun.CellFinished(workload, target, dhash, hit.Payload, true)
				}
				cfg.Status.Served(workload, target, hit.Source, false, "", served.Core.Instructions)
				if cfg.Log != nil {
					slogx.WithCell(cfg.Log, workload, target, attempt).Info(
						"run served", "source", hit.Source, "retired", served.Core.Instructions)
				}
				return nil, served, nil
			}
			if cfg.Log != nil {
				slogx.WithCell(cfg.Log, workload, target, attempt).Warn(
					"durable: replay payload rejected — re-running", "source", hit.Source)
			}
		}
		drun.CellStarted(workload, target, dhash)
	}

	if cfg.ServeAddr != "" {
		ctx := cfg.Ctx
		if ctx == nil {
			ctx = context.Background()
		}
		srv, serr := obs.StartServer(ctx, obs.ServerConfig{
			Addr: cfg.ServeAddr, Registry: cfg.Metrics, Board: cfg.Status, Log: cfg.Log,
		})
		if serr != nil {
			return nil, rec, serr
		}
		srv.SetReady(true)
		defer srv.Close()
	}
	var flight *obs.Recorder
	if cfg.FlightDir != "" {
		flight = obs.NewRecorder(cfg.FlightEvents, cfg.RunID, workload, target, attempt, cfg.Metrics)
	}
	// dumpFlight writes the post-mortem when an armed run fails; called
	// on the same goroutine that fed the recorder.
	dumpFlight := func(runErr error) {
		if flight != nil && runErr != nil {
			flight.Dump(cfg.FlightDir, simeng.WithCell(runErr, workload, target),
				slogx.WithCell(cfg.Log, workload, target, attempt))
		}
	}
	// observe interposes the pure pass-through observers (flight
	// recorder, live meter) outermost on a run path's sink; analysis
	// results and event counts are unchanged (the byte-identity
	// contract).
	observe := func(s Sink) (Sink, *obs.Meter) {
		if flight != nil {
			s = flight.Wrap(s)
		}
		if m := obs.NewMeter(cfg.Status, workload, target, s); m != nil {
			return m, m
		}
		return s, nil
	}

	parallel := sched.DefaultWorkers(cfg.Parallel)
	as := b.newAnalysisSet(cfg.Analyses, parallel)
	defer as.close()

	emu := &simeng.EmulationCore{Ctx: cfg.Ctx, MaxInstructions: cfg.MaxInstructions}
	if cfg.Log != nil {
		emu.Log = slogx.WithCell(cfg.Log, workload, target, attempt)
	}
	var statsSource simeng.StatsSource = emu
	switch cfg.Core {
	case "", "emulation":
		if cfg.Trace != nil {
			emu.Observer = cfg.Trace
		}
	case "inorder":
		m := simeng.NewInOrderModel()
		if cfg.Cache {
			m.DCache = simeng.NewL1D()
		}
		if cfg.Trace != nil {
			m.Tracer = cfg.Trace
		}
		as.add("inorder-model", m)
		statsSource = m
	case "ooo":
		m := simeng.NewOoOModel()
		if cfg.Cache {
			m.DCache = simeng.NewL1D()
		}
		if cfg.Trace != nil {
			m.Tracer = cfg.Trace
		}
		as.add("ooo-model", m)
		statsSource = m
	default:
		return nil, rec, fmt.Errorf("isacmp: unknown core %q (want emulation, inorder or ooo)", cfg.Core)
	}

	// Cell-mode metrics: counts accumulate locally and reach the
	// registry only in the ApplyCounters call after the run retires,
	// so the delta can be journaled and a replayed run re-applies
	// exactly what the original computed.
	var rm *telemetry.RunMetrics
	if cfg.Metrics != nil {
		rm = telemetry.NewCellMetrics()
	}
	var pg *telemetry.Progress
	if cfg.Progress != nil {
		pg = telemetry.NewProgress(cfg.Progress, workload+" "+target, 0)
		if cfg.Log != nil {
			pg.Log = slogx.WithCell(cfg.Log, workload, target, attempt)
		}
		pg.FinalOnly = cfg.ProgressFinalOnly
		as.add("progress", pg)
	}

	var stats Stats
	var fus *fusion.Pass
	arch := b.compiled.Target.Arch
	start := time.Now()
	if parallel > 1 {
		// Fan-out engine: simulate once, replay the stream into every
		// sink concurrently. Per-sink overhead sampling does not apply
		// (sinks no longer run inline with the core), so SinkStats
		// carries names and event counts only.
		consumers := append([]Sink(nil), as.sinks...)
		if rm != nil {
			consumers = append(consumers, rm)
		}
		n, runErr := sched.Fanout(func(s isa.Sink) error {
			// Fanout runs gen on the caller's goroutine, so the
			// recorder/meter wrapped here stay single-goroutine; counting
			// happens below the wrappers, so n is unchanged by them.
			// The fusion pass wraps the broadcast sink, so n counts
			// fused events — the effective path length.
			if cfg.Fusion.Active(arch) {
				fus = fusion.NewPass(cfg.Fusion, arch, s)
				s = fus
			}
			s, meter := observe(s)
			var e error
			stats, e = emu.Run(mach, s)
			if e == nil && fus != nil {
				fus.Flush() // while the broadcast is still open
			}
			meter.Flush()
			return e
		}, consumers...)
		if runErr != nil {
			dumpFlight(runErr)
			return nil, rec, runErr
		}
		for _, name := range as.names {
			rec.Sinks = append(rec.Sinks, telemetry.SinkStats{Name: name, Events: n})
		}
	} else {
		tee := telemetry.NewTee()
		tee.SamplePeriod = cfg.SamplePeriod
		for i := range as.sinks {
			tee.Add(as.names[i], as.sinks[i])
		}
		if rm != nil {
			tee.CountRunMetrics(rm)
		}
		var sink Sink
		if len(as.sinks) > 0 || rm != nil {
			sink = tee
		}
		if sink != nil && cfg.Fusion.Active(arch) {
			fus = fusion.NewPass(cfg.Fusion, arch, sink)
			sink = fus
		}
		sink, meter := observe(sink)
		stats, err = emu.Run(mach, sink)
		meter.Flush()
		if err != nil {
			dumpFlight(err)
			return nil, rec, err
		}
		if fus != nil {
			fus.Flush() // before reading tee stats or analysis results
		}
		if len(as.sinks) > 0 {
			rec.Sinks = tee.Stats()
		}
	}
	if as.cp != nil && as.cp == as.scp {
		rec.Sinks = telemetry.AddCarriedRow(rec.Sinks, "critpath", "scaledcp")
	}
	wall := time.Since(start)
	if rm != nil {
		rec.Counters = rm.Counters()
		if src, ok := mach.(isa.PredecodeStatsSource); ok {
			telemetry.AddPredecodeCounters(rec.Counters, src.PredecodeStats())
		}
	}
	if pg != nil {
		pg.Finish()
	}

	rec.Core = statsSource.PipelineStats()
	rec.WallSeconds = wall.Seconds()
	rec.MIPS = telemetry.RateMIPS(stats.Instructions, wall)
	if tracked := as.cp; tracked != nil {
		ts := tracked.TrackerStats()
		rec.Tracker = &telemetry.TrackerStats{MapEntries: ts.MapEntries, DenseWords: ts.DenseWords}
	} else if tracked := as.scp; tracked != nil {
		ts := tracked.TrackerStats()
		rec.Tracker = &telemetry.TrackerStats{MapEntries: ts.MapEntries, DenseWords: ts.DenseWords}
	}
	if fus != nil {
		st := fus.Stats()
		fsRec := &telemetry.FusionStats{Spec: cfg.Fusion.Spec(), EventsIn: st.EventsIn, EventsOut: st.EventsOut}
		rules := cfg.Fusion.RulesFor(arch)
		for r := fusion.Rule(0); r < fusion.NumRules; r++ {
			if rules.Has(r) {
				fsRec.Rules = append(fsRec.Rules, telemetry.FusionRuleJSON{Rule: r.String(), Hits: st.Hits[r]})
			}
		}
		rec.Fusion = fsRec
		if rm != nil {
			telemetry.AddFusionCounters(rec.Counters, fsRec)
		}
	}
	telemetry.ApplyCounters(cfg.Metrics, rec.Counters)

	res := &Result{Target: b.compiled.Target, Stats: stats}
	as.collect(res)
	rec.Results = resultTable(res)
	if drun != nil && dhash != "" {
		if data, jerr := json.Marshal(rec); jerr == nil {
			drun.CellFinished(workload, target, dhash, data, false)
		} else if cfg.Log != nil {
			slogx.WithCell(cfg.Log, workload, target, attempt).Warn(
				"durable: record encode failed — run not journaled", "err", jerr)
		}
	}
	return res, rec, nil
}

// Durability surface (see internal/durable): crash-safe runs that
// journal every retired cell and can resume after a kill.
type (
	// DurableRun is the crash-safety handle: a write-ahead cell
	// journal plus a content-addressed result cache rooted in one
	// directory. Share one handle across the cells of a matrix.
	DurableRun = durable.Run
	// DurableStats summarises what a DurableRun served versus
	// computed; it is the manifest `durable` block.
	DurableStats = durable.Stats
)

// OpenDurable arms the crash-safety layer in dir. With resume=false a
// fresh journal is started (the content cache persists and still
// serves identical cells — the warm-cache path); with resume=true the
// existing journal is replayed, verified and compacted first, so
// already-retired cells are served instead of recomputed — the
// -resume flag.
func OpenDurable(dir string, resume bool) (*DurableRun, error) {
	if resume {
		return durable.Resume(dir, nil)
	}
	return durable.Open(dir, nil)
}

// runSpec canonically serializes every RunConfig knob that can change
// an instrumented run's record — core model, cache model, analysis
// selection, retirement budget, metrics collection — for the content
// address. Execution-strategy and observer knobs (Parallel, progress,
// status, serve, flight recorder) are excluded: the byte-identity
// contract guarantees they cannot change a result.
func runSpec(cfg RunConfig) string {
	s := fmt.Sprintf("run/v1 core=%s cache=%t pl=%t cp=%t scp=%t win=%t sizes=%v stride=%d mix=%t br=%t dep=%t maxinstr=%d metrics=%t",
		cfg.Core, cfg.Cache, cfg.Analyses.PathLength, cfg.Analyses.CritPath,
		cfg.Analyses.ScaledCritPath, cfg.Analyses.Windowed, cfg.Analyses.WindowSizes,
		cfg.Analyses.WindowStride, cfg.Analyses.Mix, cfg.Analyses.Branches,
		cfg.Analyses.DepDistances, cfg.MaxInstructions, cfg.Metrics != nil)
	if cfg.Analyses.Latencies != nil {
		s += fmt.Sprintf(" lat=%v", *cfg.Analyses.Latencies)
	}
	return s
}

// Parallel matrix surface (see internal/report and internal/sched):
// the full workload x ISA x compiler x analysis matrix fanned out over
// a worker pool, with each cell's trace simulated once.
type (
	// MatrixExperiment selects the analyses, targets and worker count
	// for a matrix run. Parallel: 1 is strictly sequential, 0 or
	// negative selects GOMAXPROCS; results are byte-identical for every
	// value.
	MatrixExperiment = report.Experiment
	// MatrixRow is one (workload, target) cell's results.
	MatrixRow = report.Row
	// SchedStats summarises the worker pool of a matrix run for the
	// manifest: cells, per-worker utilization and busy time.
	SchedStats = telemetry.SchedStats
)

// RunMatrix executes every (workload, target) cell of the matrix over
// the experiment's worker pool and returns rows indexed
// [workload][target] plus the pool's utilization summary.
func RunMatrix(progs []*Program, ex MatrixExperiment) ([][]MatrixRow, *SchedStats, error) {
	return report.RunSuite(progs, ex)
}

// resultTable converts a Result into the manifest's analysis block.
func resultTable(res *Result) *telemetry.ResultTable {
	rt := &telemetry.ResultTable{
		PathLen:         res.Stats.Instructions,
		Other:           res.OtherInstructions,
		CP:              res.CP,
		ILP:             res.ILP,
		RuntimeMS:       res.RuntimeSeconds * 1e3,
		ScaledCP:        res.ScaledCP,
		ScaledILP:       res.ScaledILP,
		ScaledRuntimeMS: res.ScaledRuntimeSeconds * 1e3,
		BranchDensity:   res.BranchDensity,
		BranchTaken:     res.BranchTakenRate,
	}
	for _, rc := range res.Regions {
		rt.Regions = append(rt.Regions, telemetry.RegionJSON{Kernel: rc.Name, Count: rc.Count})
	}
	for _, w := range res.Windows {
		rt.Windows = append(rt.Windows, telemetry.WindowJSON{
			Size: w.Size, Windows: w.Windows, MeanCP: w.MeanCP, MeanILP: w.MeanILP,
		})
	}
	for _, gc := range res.MixCounts {
		if gc.Count == 0 {
			continue
		}
		rt.Mix = append(rt.Mix, telemetry.MixJSON{
			Group: gc.Group.String(), Count: gc.Count, Fraction: gc.Fraction,
		})
	}
	return rt
}
