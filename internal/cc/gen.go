package cc

import (
	"fmt"
	"math"

	"isacmp/internal/elfio"
	"isacmp/internal/ir"
)

// noReg marks "no destination register requested".
const noReg = 0xff

// selector is one ISA's instruction selection. The shared generator
// (gen) walks the IR, allocates registers and binds variables, and
// calls a selector wherever the two ISAs emit different code: the
// section 3.3 idioms (addressing, comparisons, fused forms, loop
// exits) and the instruction each IR operator becomes.
type selector interface {
	// prologue emits the flavour's start-up code after _start.
	prologue()
	// countDown decrements r and branches to label while it is not
	// zero: the repeat loop's back edge.
	countDown(r uint8, label string)
	// exit emits the exit(0) system call.
	exit()
	// build links the emitted text with the data segment.
	build(data []byte) (*elfio.File, error)

	// movImm loads the integer constant v into r.
	movImm(r uint8, v int64)
	// materialiseF loads the FP constant c into fr.
	materialiseF(c float64, fr uint8)
	// mov copies src to dst, in the FP register file when fp is set.
	mov(fp bool, dst, src uint8)

	// loop lowers a counted loop, choosing its addressing and its exit
	// idiom.
	loop(l *ir.Loop) error
	// branchUnless branches to target when cond is false.
	branchUnless(cond ir.Expr, target string) error
	// jump branches to target unconditionally.
	jump(target string)

	// loadElem loads ld into dest (or a fresh register of the class fp
	// selects), with the ISA's addressing for ld's index.
	loadElem(ld ir.LoadExpr, fp bool, dest uint8) (reg uint8, owned bool, err error)
	// storeElem stores v to arr[idx].
	storeElem(arr *ir.Array, idx ir.Expr, v uint8) error

	// mulAdd lowers a fused integer multiply-add, reporting ok=false
	// when the ISA has none for ex.
	mulAdd(ex ir.Bin, dest uint8) (reg uint8, owned, ok bool, err error)
	// compare materialises an integer or FP comparison as 0/1.
	compare(ex ir.Bin, dest uint8) (reg uint8, owned bool, err error)
	// immOK reports whether op can take c as an immediate operand.
	immOK(op ir.BinOp, c int64) bool
	// opImm emits r = a op c for a c that immOK accepted.
	opImm(op ir.BinOp, r, a uint8, c int64)
	// opI emits the register-register form r = a op b.
	opI(op ir.BinOp, r, a, b uint8) error
	// unI emits r = op a on integers.
	unI(op ir.UnOp, r, a uint8) error
	// cvtI converts the double in f to an integer in r, truncating.
	cvtI(r, f uint8)

	// fma emits the fused multiply-add kind (ir.MatchFMA's order).
	fma(kind ir.FMAKind, r, a, b, c uint8)
	// opF emits r = a op b on doubles.
	opF(op ir.BinOp, r, a, b uint8) error
	// unF emits r = op a on doubles.
	unF(op ir.UnOp, r, a uint8)
	// cvtF converts the integer in a to a double in r.
	cvtF(r, a uint8)
}

// text is the part of an assembler the shared generator drives
// directly: named positions in the instruction stream.
type text interface {
	Label(name string)
	Symbol(name string)
}

// gen holds the ISA-independent state of one compilation: the register
// pools, the registers bound to variables, array bases and hoisted FP
// constants, the label counter and the first deferred error.
type gen struct {
	sel    selector
	text   text
	prefix string // error prefix naming the back end
	lay    *dataLayout
	opts   Options

	intPool *regPool
	fpPool  *regPool

	vars    map[*ir.Var]uint8
	arrBase map[*ir.Array]uint8
	constFP map[float64]uint8

	labelN int
	err    error
}

// newGen returns the shared state for the selector sel, which emits
// into t. intRegs and fpRegs list each register file's allocatable
// registers in preference order.
func newGen(sel selector, t text, prefix string, lay *dataLayout, opts Options, intRegs, fpRegs []uint8) *gen {
	return &gen{
		sel:     sel,
		text:    t,
		prefix:  prefix,
		lay:     lay,
		opts:    opts,
		intPool: newRegPool("integer", intRegs),
		fpPool:  newRegPool("floating-point", fpRegs),
		vars:    map[*ir.Var]uint8{},
		arrBase: map[*ir.Array]uint8{},
		constFP: map[float64]uint8{},
	}
}

// program emits the executable: _start with the flavour's prologue,
// the setup kernels, the kernels (repeated by a count-down loop in
// _loop_overhead when the program repeats) and _exit.
func (g *gen) program(p *ir.Program) (*elfio.File, error) {
	g.text.Symbol("_start")
	g.sel.prologue()

	for _, k := range p.Setup {
		if err := g.kernel(k); err != nil {
			return nil, fmt.Errorf("setup kernel %q: %w", k.Name, err)
		}
	}

	repeatReg := uint8(noReg)
	if p.Repeat > 1 {
		r, err := g.intPool.alloc()
		if err != nil {
			return nil, err
		}
		repeatReg = r
		g.sel.movImm(repeatReg, int64(p.Repeat))
		g.text.Label("repeat")
	}

	for _, k := range p.Kernels {
		if err := g.kernel(k); err != nil {
			return nil, fmt.Errorf("kernel %q: %w", k.Name, err)
		}
	}

	if p.Repeat > 1 {
		g.text.Symbol("_loop_overhead")
		g.sel.countDown(repeatReg, "repeat")
	}

	g.text.Symbol("_exit")
	g.sel.exit()

	if g.err != nil {
		return nil, g.err
	}
	return g.sel.build(g.lay.data)
}

func (g *gen) label(prefix string) string {
	g.labelN++
	return fmt.Sprintf("%s%d", prefix, g.labelN)
}

func (g *gen) fail(err error) {
	if g.err == nil {
		g.err = err
	}
}

// errorf formats an error prefixed with the back end's name.
func (g *gen) errorf(format string, args ...any) error {
	return fmt.Errorf(g.prefix+": "+format, args...)
}

// pool returns the FP register pool when fp is set, else the integer
// pool.
func (g *gen) pool(fp bool) *regPool {
	if fp {
		return g.fpPool
	}
	return g.intPool
}

// kernel emits one kernel: array bases and FP constants are hoisted
// into registers, then the body is generated; all kernel-scoped
// registers are released afterwards.
func (g *gen) kernel(k *ir.Kernel) error {
	g.text.Symbol(k.Name)
	var scoped []func()

	arrays, consts := collectUses(k.Body)
	for _, arr := range arrays {
		r, err := g.intPool.alloc()
		if err != nil {
			return err
		}
		g.sel.movImm(r, int64(g.lay.base[arr.Name]))
		g.arrBase[arr] = r
		arr := arr
		scoped = append(scoped, func() { delete(g.arrBase, arr); g.intPool.free(r) })
	}
	if len(consts) > 10 {
		consts = consts[:10] // the rest materialise inline at each use
	}
	for _, c := range consts {
		fr, err := g.fpPool.alloc()
		if err != nil {
			return err
		}
		g.sel.materialiseF(c, fr)
		g.constFP[c] = fr
		c := c
		scoped = append(scoped, func() { delete(g.constFP, c); g.fpPool.free(fr) })
	}

	if err := g.stmts(k.Body); err != nil {
		return err
	}

	// Release variable registers bound during this kernel.
	for vr, r := range g.vars {
		g.pool(vr.Type == ir.F64).free(r)
		delete(g.vars, vr)
	}
	for i := len(scoped) - 1; i >= 0; i-- {
		scoped[i]()
	}
	return nil
}

func (g *gen) stmts(body []ir.Stmt) error {
	for _, s := range body {
		if err := g.stmt(s); err != nil {
			return err
		}
	}
	return g.err
}

func (g *gen) stmt(s ir.Stmt) error {
	switch st := s.(type) {
	case *ir.Loop:
		return g.sel.loop(st)
	case *ir.Assign:
		return g.assign(st)
	case *ir.Store:
		return g.store(st)
	case *ir.If:
		return g.ifStmt(st)
	}
	return g.errorf("unknown statement %T", s)
}

// prebindVars allocates registers for every variable assigned in the
// statement list (recursively), so a loop's later register choices
// (hoisted bases, pointers) see the true residual pressure.
func (g *gen) prebindVars(stmts []ir.Stmt) error {
	for _, s := range stmts {
		switch st := s.(type) {
		case *ir.Assign:
			if _, err := g.varReg(st.Var); err != nil {
				return err
			}
		case *ir.Loop:
			if err := g.prebindVars(st.Body); err != nil {
				return err
			}
		case *ir.If:
			if err := g.prebindVars(st.Then); err != nil {
				return err
			}
			if err := g.prebindVars(st.Else); err != nil {
				return err
			}
		}
	}
	return nil
}

// varReg returns (allocating on demand) the register pinned to v.
func (g *gen) varReg(v *ir.Var) (uint8, error) {
	if r, ok := g.vars[v]; ok {
		return r, nil
	}
	r, err := g.pool(v.Type == ir.F64).alloc()
	if err != nil {
		return 0, fmt.Errorf("variable %q: %w", v.Name, err)
	}
	g.vars[v] = r
	return r, nil
}

// readVar returns the register bound to a variable being read.
func (g *gen) readVar(v *ir.Var) (uint8, bool, error) {
	r, ok := g.vars[v]
	if !ok {
		return 0, false, g.errorf("variable %q read before assignment", v.Name)
	}
	return r, false, nil
}

// eval evaluates e in the register class fp selects.
func (g *gen) eval(e ir.Expr, fp bool, dest uint8) (uint8, bool, error) {
	if fp {
		return g.evalF(e, dest)
	}
	return g.evalI(e, dest)
}

func (g *gen) assign(st *ir.Assign) error {
	r, err := g.varReg(st.Var)
	if err != nil {
		return err
	}
	fp := st.Var.Type == ir.F64
	got, owned, err := g.eval(st.Val, fp, r)
	if err != nil {
		return err
	}
	if got != r {
		g.sel.mov(fp, r, got)
		if owned {
			g.pool(fp).free(got)
		}
	}
	return nil
}

func (g *gen) store(st *ir.Store) error {
	fp := st.Arr.Elem == ir.F64
	v, owned, err := g.eval(st.Val, fp, noReg)
	if err != nil {
		return err
	}
	if err := g.sel.storeElem(st.Arr, st.Index, v); err != nil {
		return err
	}
	if owned {
		g.pool(fp).free(v)
	}
	return nil
}

// ifStmt lowers a conditional: the ISA branches past the then-arm on
// the negated condition.
func (g *gen) ifStmt(st *ir.If) error {
	elseL := g.label("else")
	endL := g.label("endif")
	target := elseL
	if len(st.Else) == 0 {
		target = endL
	}

	if err := g.sel.branchUnless(st.Cond, target); err != nil {
		return err
	}
	if err := g.stmts(st.Then); err != nil {
		return err
	}
	if len(st.Else) > 0 {
		g.sel.jump(endL)
		g.text.Label(elseL)
		if err := g.stmts(st.Else); err != nil {
			return err
		}
	}
	g.text.Label(endL)
	return g.err
}

// evalI evaluates an integer expression. dest, when not noReg, is a
// register the caller owns and would like the result in; the result
// may still land elsewhere (e.g. a borrowed variable register), so
// callers check the returned register. owned reports whether the
// caller must free the returned register back to the pool.
func (g *gen) evalI(e ir.Expr, dest uint8) (reg uint8, owned bool, err error) {
	switch ex := e.(type) {
	case ir.ConstI:
		r, owned, err := g.intPool.into(dest)
		if err != nil {
			return 0, false, err
		}
		g.sel.movImm(r, ex.V)
		return r, owned, nil

	case ir.VarRef:
		return g.readVar(ex.Var)

	case ir.LoadExpr:
		return g.sel.loadElem(ex, false, dest)

	case ir.Cvt:
		if ex.To != ir.I64 {
			return 0, false, g.errorf("float conversion in integer context")
		}
		f, fOwned, err := g.evalF(ex.A, noReg)
		if err != nil {
			return 0, false, err
		}
		r, owned, err := g.intPool.into(dest)
		if err != nil {
			return 0, false, err
		}
		g.sel.cvtI(r, f)
		if fOwned {
			g.fpPool.free(f)
		}
		return r, owned, nil

	case ir.Un:
		a, aOwned, err := g.evalI(ex.A, noReg)
		if err != nil {
			return 0, false, err
		}
		r, owned, err := g.intPool.into(dest)
		if err != nil {
			return 0, false, err
		}
		if err := g.sel.unI(ex.Op, r, a); err != nil {
			return 0, false, err
		}
		if aOwned {
			g.intPool.free(a)
		}
		return r, owned, nil

	case ir.Bin:
		return g.binI(ex, dest)
	}
	return 0, false, g.errorf("expression %T in integer context", e)
}

// binI lowers an integer binary operator: the ISA's fused multiply-add
// or comparison when it applies, else an immediate second operand
// where the ISA can encode one, else the register-register form.
func (g *gen) binI(ex ir.Bin, dest uint8) (uint8, bool, error) {
	if r, owned, ok, err := g.sel.mulAdd(ex, dest); ok {
		return r, owned, err
	}
	if ex.Op >= ir.Lt && ex.Op <= ir.Ge {
		return g.sel.compare(ex, dest)
	}

	// Immediate folding; commutative operators fold a constant on
	// either side.
	if c, ok := constFold(ex.A); ok {
		switch ex.Op {
		case ir.Add, ir.And, ir.Or, ir.Mul:
			ex = ir.Bin{Op: ex.Op, A: ex.B, B: ir.ConstI{V: c}}
		}
	}
	if c, ok := constFold(ex.B); ok && g.sel.immOK(ex.Op, c) {
		a, aOwned, err := g.evalI(ex.A, noReg)
		if err != nil {
			return 0, false, err
		}
		r, owned, err := g.intPool.into(dest)
		if err != nil {
			return 0, false, err
		}
		g.sel.opImm(ex.Op, r, a, c)
		if aOwned {
			g.intPool.free(a)
		}
		return r, owned, nil
	}

	a, aOwned, err := g.evalI(ex.A, noReg)
	if err != nil {
		return 0, false, err
	}
	b, bOwned, err := g.evalI(ex.B, noReg)
	if err != nil {
		return 0, false, err
	}
	r, owned, err := g.intPool.into(dest)
	if err != nil {
		return 0, false, err
	}
	if err := g.sel.opI(ex.Op, r, a, b); err != nil {
		return 0, false, err
	}
	if aOwned {
		g.intPool.free(a)
	}
	if bOwned {
		g.intPool.free(b)
	}
	return r, owned, nil
}

// evalF evaluates a floating-point expression, contracting a*b±c into
// a fused multiply-add as GCC does at -O2 (-ffp-contract=fast).
func (g *gen) evalF(e ir.Expr, dest uint8) (reg uint8, owned bool, err error) {
	if a, b, c, kind := ir.MatchFMA(e); kind != ir.FMANone && !g.opts.NoFMA {
		ra, aOwned, err := g.evalF(a, noReg)
		if err != nil {
			return 0, false, err
		}
		rb, bOwned, err := g.evalF(b, noReg)
		if err != nil {
			return 0, false, err
		}
		rc, cOwned, err := g.evalF(c, noReg)
		if err != nil {
			return 0, false, err
		}
		r, owned, err := g.fpPool.into(dest)
		if err != nil {
			return 0, false, err
		}
		g.sel.fma(kind, r, ra, rb, rc)
		if aOwned {
			g.fpPool.free(ra)
		}
		if bOwned {
			g.fpPool.free(rb)
		}
		if cOwned {
			g.fpPool.free(rc)
		}
		return r, owned, nil
	}

	switch ex := e.(type) {
	case ir.ConstF:
		if r, ok := g.constFP[ex.V]; ok {
			return r, false, nil
		}
		r, owned, err := g.fpPool.into(dest)
		if err != nil {
			return 0, false, err
		}
		g.sel.materialiseF(ex.V, r)
		return r, owned, g.err

	case ir.VarRef:
		return g.readVar(ex.Var)

	case ir.LoadExpr:
		return g.sel.loadElem(ex, true, dest)

	case ir.Cvt:
		if ex.To != ir.F64 {
			return 0, false, g.errorf("integer conversion in float context")
		}
		a, aOwned, err := g.evalI(ex.A, noReg)
		if err != nil {
			return 0, false, err
		}
		r, owned, err := g.fpPool.into(dest)
		if err != nil {
			return 0, false, err
		}
		g.sel.cvtF(r, a)
		if aOwned {
			g.intPool.free(a)
		}
		return r, owned, nil

	case ir.Un:
		a, aOwned, err := g.evalF(ex.A, noReg)
		if err != nil {
			return 0, false, err
		}
		r, owned, err := g.fpPool.into(dest)
		if err != nil {
			return 0, false, err
		}
		g.sel.unF(ex.Op, r, a)
		if aOwned {
			g.fpPool.free(a)
		}
		return r, owned, nil

	case ir.Bin:
		a, aOwned, err := g.evalF(ex.A, noReg)
		if err != nil {
			return 0, false, err
		}
		b, bOwned, err := g.evalF(ex.B, noReg)
		if err != nil {
			return 0, false, err
		}
		r, owned, err := g.fpPool.into(dest)
		if err != nil {
			return 0, false, err
		}
		if err := g.sel.opF(ex.Op, r, a, b); err != nil {
			return 0, false, err
		}
		if aOwned {
			g.fpPool.free(a)
		}
		if bOwned {
			g.fpPool.free(b)
		}
		return r, owned, nil
	}
	return 0, false, g.errorf("expression %T in float context", e)
}

func f64bitsOf(v float64) uint64 { return math.Float64bits(v) }
