// Package cc is the compiler: it lowers IR benchmark programs to
// AArch64 or RV64G machine code, reproducing the code-generation
// idioms the paper attributes to GCC 9.2 and GCC 12.2 (section 3.3):
//
//   - AArch64 uses register-offset addressing with an element-index
//     register ("ldr d1, [x22, x0, lsl #3]"); RV64G, whose only
//     addressing mode is base+immediate, strength-reduces unit-stride
//     accesses into pointer walks and terminates loops with its fused
//     compare-and-branch ("bne a5, s0, ...").
//   - GCC 12.2 AArch64 hoists large loop bounds into a register and
//     ends loops with "cmp x0, x20; b.ne"; GCC 9.2 instead recomputes
//     the comparison with a "sub #hi, lsl #12; subs #lo" pair each
//     iteration, the extra instruction the paper measures as a 12.5%
//     STREAM path-length reduction between compiler versions.
//   - RISC-V conditional branches fuse the comparison; AArch64 needs a
//     separate NZCV-setting instruction before every conditional
//     branch.
//   - Both back ends contract a*b±c into fused multiply-add, as GCC
//     does at -O2 with the default -ffp-contract=fast.
//
// One generator (gen.go) walks the IR for both ISAs: the program
// skeleton, statements, variable and register binding, and expression
// evaluation order. Each ISA is an instruction selector behind the
// selector interface (a64gen.go, rv64gen.go and their *expr.go files)
// that keeps only what differs between them: immediates, addressing,
// the compare and branch idioms, the loop shape and its exit test, and
// the instruction each operator becomes.
package cc

import (
	"fmt"
	"math/bits"

	"isacmp/internal/a64"
	"isacmp/internal/elfio"
	"isacmp/internal/ir"
	"isacmp/internal/isa"
	"isacmp/internal/mem"
	"isacmp/internal/rv64"
	"isacmp/internal/simeng"
)

// Flavor selects which GCC version's idioms the back end reproduces.
type Flavor uint8

// The two compiler flavours studied by the paper.
const (
	GCC9 Flavor = iota
	GCC12
)

// String returns the compiler version string.
func (f Flavor) String() string {
	if f == GCC9 {
		return "GCC 9.2"
	}
	return "GCC 12.2"
}

// Target names an (architecture, compiler flavour) pair — one column
// of the paper's tables.
type Target struct {
	Arch   isa.Arch
	Flavor Flavor
}

// String returns e.g. "AArch64/GCC 12.2".
func (t Target) String() string { return t.Arch.String() + "/" + t.Flavor.String() }

// Targets returns all four (arch, flavour) pairs in the paper's
// column order.
func Targets() []Target {
	return []Target{
		{isa.AArch64, GCC9},
		{isa.RV64, GCC9},
		{isa.AArch64, GCC12},
		{isa.RV64, GCC12},
	}
}

// Memory layout constants for compiled programs.
const (
	// TextBase is where program text is linked.
	TextBase = 0x10000
	// DataBase is where the array data segment starts.
	DataBase = 0x400000
	// StackHeadroom is extra memory above the data segment for the
	// stack.
	StackHeadroom = 1 << 20
)

// Options disables individual optimisations for ablation studies: each
// knob removes one of the code-generation behaviours the paper's
// analysis turns on, so its contribution to path length can be
// measured in isolation.
type Options struct {
	// NoFMA disables multiply-add contraction on both ISAs (and on the
	// verification interpreter via ir.Interp — callers comparing
	// against the interpreter must disable fusion there too; see
	// ir.Interp.NoFMA).
	NoFMA bool
	// NoStrengthReduction disables RISC-V pointer walks and the shared
	// scaled index: every access computes its address with shift+add.
	NoStrengthReduction bool
	// NoHoisting disables AArch64 loop-invariant stream-base hoisting.
	NoHoisting bool
}

// Compiled is the output of Compile: a runnable statically linked ELF
// plus the array layout needed to verify results.
type Compiled struct {
	// File is the ELF executable.
	File *elfio.File
	// ArrayBase maps array names to their virtual addresses.
	ArrayBase map[string]uint64
	// MemSize is the memory image size needed to run the program
	// (from TextBase).
	MemSize uint64
	// Target records what the program was compiled for.
	Target Target
}

// Compile lowers the program for the target with default options.
func Compile(p *ir.Program, t Target) (*Compiled, error) {
	return CompileOpts(p, t, Options{})
}

// CompileOpts lowers the program for the target with explicit
// optimisation knobs (for ablation studies).
func CompileOpts(p *ir.Program, t Target, opts Options) (*Compiled, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	lay := layout(p)
	var (
		file *elfio.File
		err  error
	)
	switch t.Arch {
	case isa.AArch64:
		file, err = compileA64(p, t.Flavor, lay, opts)
	case isa.RV64:
		file, err = compileRV64(p, t.Flavor, lay, opts)
	default:
		err = fmt.Errorf("cc: unknown architecture %v", t.Arch)
	}
	if err != nil {
		return nil, fmt.Errorf("cc: %s: %s: %w", p.Name, t, err)
	}
	return &Compiled{
		File:      file,
		ArrayBase: lay.base,
		MemSize:   lay.end - TextBase + StackHeadroom,
		Target:    t,
	}, nil
}

// NewMachine loads the executable into a fresh memory image and
// returns its target's machine, ready to Step, with the memory.
func (c *Compiled) NewMachine() (simeng.Machine, *mem.Memory, error) {
	m := mem.New(TextBase, c.MemSize)
	var mach simeng.Machine
	var err error
	if c.Target.Arch == isa.AArch64 {
		mach, err = a64.NewMachine(c.File, m)
	} else {
		mach, err = rv64.NewMachine(c.File, m)
	}
	if err != nil {
		return nil, nil, err
	}
	return mach, m, nil
}

// Disasm renders one instruction word of arch in the architecture's
// assembly syntax, or as a .word directive when it does not decode.
func Disasm(arch isa.Arch, word uint32) string {
	var s fmt.Stringer
	var err error
	if arch == isa.AArch64 {
		s, err = a64.Decode(word)
	} else {
		s, err = rv64.Decode(word)
	}
	if err != nil {
		return fmt.Sprintf(".word %#08x", word)
	}
	return s.String()
}

// dataLayout assigns array addresses.
type dataLayout struct {
	base map[string]uint64
	data []byte
	end  uint64
}

func layout(p *ir.Program) *dataLayout {
	l := &dataLayout{base: map[string]uint64{}}
	addr := uint64(DataBase)
	for _, a := range p.Arrays {
		l.base[a.Name] = addr
		addr += uint64(a.Len) * 8
	}
	l.data = make([]byte, addr-DataBase)
	for _, a := range p.Arrays {
		copy(l.data[l.base[a.Name]-DataBase:], a.Bytes())
	}
	l.end = addr
	return l
}

// stream identifies a unit-stride access pattern within a loop:
// arr[i], arr[c + i] or arr[v + i] for the innermost loop variable i,
// a constant c, or a loop-invariant variable v.
type stream struct {
	arr      *ir.Array
	invVar   *ir.Var // nil when the offset is constant
	invConst int64
}

// matchStream recognises a unit-stride index expression for loop
// variable lv.
func matchStream(arr *ir.Array, idx ir.Expr, lv *ir.Var) (stream, bool) {
	if v, ok := idx.(ir.VarRef); ok && v.Var == lv {
		return stream{arr: arr}, true
	}
	b, ok := idx.(ir.Bin)
	if !ok || b.Op != ir.Add {
		return stream{}, false
	}
	inv, iv := b.A, b.B
	if v, ok := iv.(ir.VarRef); !ok || v.Var != lv {
		inv, iv = b.B, b.A
		if v, ok := iv.(ir.VarRef); !ok || v.Var != lv {
			return stream{}, false
		}
	}
	switch e := inv.(type) {
	case ir.ConstI:
		return stream{arr: arr, invConst: e.V}, true
	case ir.VarRef:
		if e.Var == lv {
			return stream{}, false
		}
		return stream{arr: arr, invVar: e.Var}, true
	}
	return stream{}, false
}

// loopInfo summarises how a loop's variable is used, deciding between
// pointer mode (RISC-V) and whether an index register is needed.
type loopInfo struct {
	streams []stream
	// otherUses is true when the loop variable appears anywhere other
	// than as a unit-stride index: arithmetic, stores of its value,
	// inner loop bounds, non-stream indexes.
	otherUses bool
}

// analyseLoop inspects the body of a loop over lv.
func analyseLoop(body []ir.Stmt, lv *ir.Var) loopInfo {
	var info loopInfo
	seen := map[stream]bool{}
	addStream := func(s stream) {
		if !seen[s] {
			seen[s] = true
			info.streams = append(info.streams, s)
		}
	}
	var visitExpr func(e ir.Expr, asIndex *ir.Array)
	visitExpr = func(e ir.Expr, asIndex *ir.Array) {
		if asIndex != nil {
			if s, ok := matchStream(asIndex, e, lv); ok {
				addStream(s)
				// The invariant part is not a "use" of lv; the stream
				// absorbs it entirely.
				return
			}
		}
		switch ex := e.(type) {
		case ir.VarRef:
			if ex.Var == lv {
				info.otherUses = true
			}
		case ir.LoadExpr:
			visitExpr(ex.Index, ex.Arr)
		case ir.Bin:
			visitExpr(ex.A, nil)
			visitExpr(ex.B, nil)
		case ir.Un:
			visitExpr(ex.A, nil)
		case ir.Cvt:
			visitExpr(ex.A, nil)
		}
	}
	var visitStmts func(stmts []ir.Stmt)
	visitStmts = func(stmts []ir.Stmt) {
		for _, s := range stmts {
			switch st := s.(type) {
			case *ir.Store:
				visitExpr(st.Index, st.Arr)
				visitExpr(st.Val, nil)
			case *ir.Assign:
				visitExpr(st.Val, nil)
			case *ir.If:
				visitExpr(st.Cond, nil)
				visitStmts(st.Then)
				visitStmts(st.Else)
			case *ir.Loop:
				visitExpr(st.Start, nil)
				visitExpr(st.End, nil)
				visitStmts(st.Body)
			}
		}
	}
	visitStmts(body)
	return info
}

// hasInnerLoop reports whether stmts contain a nested loop.
func hasInnerLoop(stmts []ir.Stmt) bool {
	for _, s := range stmts {
		switch st := s.(type) {
		case *ir.Loop:
			return true
		case *ir.If:
			if hasInnerLoop(st.Then) || hasInnerLoop(st.Else) {
				return true
			}
		}
	}
	return false
}

// assignedIn reports whether v is assigned anywhere in stmts (including
// as an inner loop variable).
func assignedIn(stmts []ir.Stmt, v *ir.Var) bool {
	for _, s := range stmts {
		switch st := s.(type) {
		case *ir.Assign:
			if st.Var == v {
				return true
			}
		case *ir.Loop:
			if st.Var == v || assignedIn(st.Body, v) {
				return true
			}
		case *ir.If:
			if assignedIn(st.Then, v) || assignedIn(st.Else, v) {
				return true
			}
		}
	}
	return false
}

// constFold extracts a compile-time integer constant.
func constFold(e ir.Expr) (int64, bool) {
	c, ok := e.(ir.ConstI)
	return c.V, ok
}

// visitIR walks stmts in pre-order: stmt sees each statement and expr
// each expression before its operands. Operands are visited in a fixed
// order, which decides the first-use order the kernel hoists in: a
// store's index, then its value; an assignment's value; an if's
// condition, then and else arms; a loop's start, end and body.
func visitIR(stmts []ir.Stmt, stmt func(ir.Stmt), expr func(ir.Expr)) {
	var visitExpr func(e ir.Expr)
	visitExpr = func(e ir.Expr) {
		expr(e)
		switch ex := e.(type) {
		case ir.LoadExpr:
			visitExpr(ex.Index)
		case ir.Bin:
			visitExpr(ex.A)
			visitExpr(ex.B)
		case ir.Un:
			visitExpr(ex.A)
		case ir.Cvt:
			visitExpr(ex.A)
		}
	}
	var visit func(stmts []ir.Stmt)
	visit = func(stmts []ir.Stmt) {
		for _, s := range stmts {
			stmt(s)
			switch st := s.(type) {
			case *ir.Store:
				visitExpr(st.Index)
				visitExpr(st.Val)
			case *ir.Assign:
				visitExpr(st.Val)
			case *ir.If:
				visitExpr(st.Cond)
				visit(st.Then)
				visit(st.Else)
			case *ir.Loop:
				visitExpr(st.Start)
				visitExpr(st.End)
				visit(st.Body)
			}
		}
	}
	visit(stmts)
}

// collectUses gathers the arrays a kernel references and the distinct
// FP constants it uses, each in first-use order, for hoisting into
// registers.
func collectUses(body []ir.Stmt) (arrays []*ir.Array, consts []float64) {
	seenArr := map[*ir.Array]bool{}
	addArr := func(a *ir.Array) {
		if !seenArr[a] {
			seenArr[a] = true
			arrays = append(arrays, a)
		}
	}
	seenConst := map[float64]bool{}
	visitIR(body, func(s ir.Stmt) {
		if st, ok := s.(*ir.Store); ok {
			addArr(st.Arr)
		}
	}, func(e ir.Expr) {
		switch ex := e.(type) {
		case ir.LoadExpr:
			addArr(ex.Arr)
		case ir.ConstF:
			if !seenConst[ex.V] {
				seenConst[ex.V] = true
				consts = append(consts, ex.V)
			}
		}
	})
	return arrays, consts
}

// regPool hands out registers from a fixed preference order. used
// has bit r set while register r is allocated; every pool register is
// below 64.
type regPool struct {
	order []uint8
	used  uint64
	name  string
}

func newRegPool(name string, order []uint8) *regPool {
	for _, r := range order {
		if r >= 64 {
			panic(fmt.Sprintf("cc: %s register %d does not fit the pool's mask", name, r))
		}
	}
	return &regPool{order: order, name: name}
}

func (p *regPool) alloc() (uint8, error) {
	for _, r := range p.order {
		if p.used&(1<<r) == 0 {
			p.used |= 1 << r
			return r, nil
		}
	}
	return 0, fmt.Errorf("out of %s registers", p.name)
}

// into returns dest when the caller named one, else a fresh register
// that the caller owns.
func (p *regPool) into(dest uint8) (r uint8, owned bool, err error) {
	if dest != noReg {
		return dest, false, nil
	}
	r, err = p.alloc()
	return r, true, err
}

func (p *regPool) free(r uint8) {
	if p.used&(1<<r) == 0 {
		panic(fmt.Sprintf("cc: double free of %s register %d", p.name, r))
	}
	p.used &^= 1 << r
}

func (p *regPool) inUse() int { return bits.OnesCount64(p.used) }
