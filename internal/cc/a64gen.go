package cc

import (
	"isacmp/internal/a64"
	"isacmp/internal/elfio"
	"isacmp/internal/ir"
)

// a64Gen is the AArch64 instruction selector.
type a64Gen struct {
	*gen
	asm    *a64.Asm
	flavor Flavor
	loops  []*a64LoopCtx
}

type a64LoopCtx struct {
	lv *ir.Var
	// bases holds hoisted per-stream base registers: for an access
	// arr[inv + lv], the register holds &arr[inv] so the access itself
	// is a single register-offset load/store — GCC's loop-invariant
	// address hoisting.
	bases map[stream]uint8
}

// compileA64 lowers the program for the scalar AArch64 subset. Loops
// keep an element-index register and use register-offset addressing
// ("ldr d1, [x22, x0, lsl #3]"); the flavour decides how loop-exit
// comparisons against large constant bounds are generated (see the
// package comment).
func compileA64(p *ir.Program, flavor Flavor, lay *dataLayout, opts Options) (*elfio.File, error) {
	g := &a64Gen{asm: a64.NewAsm(), flavor: flavor}
	// x8 is the syscall number register; x16-x18 are reserved by the
	// platform ABI. The generated code is one leaf function with no
	// frame, so x29/x30 join the pool as GCC's -fomit-frame-pointer
	// leaf allocation would use them.
	g.gen = newGen(g, g.asm, "a64gen", lay, opts,
		[]uint8{
			9, 10, 11, 12, 13, 14, 15, 0, 1, 2, 3, 4, 5, 6, 7,
			19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30,
		},
		[]uint8{
			0, 1, 2, 3, 4, 5, 6, 7, 16, 17, 18, 19, 20, 21, 22, 23,
			8, 9, 10, 11, 12, 13, 14, 15, 24, 25, 26, 27, 28, 29, 30, 31,
		})
	return g.program(p)
}

// prologue models GCC 9.2's slightly chattier startup (the statically
// linked binaries the paper measures differ mainly here, plus the NEON
// register zeroing it could not eliminate).
func (g *a64Gen) prologue() {
	if g.flavor == GCC9 {
		for _, r := range []uint8{0, 1, 2} {
			g.asm.MOV64(r, 0)
		}
	}
}

func (g *a64Gen) countDown(r uint8, label string) {
	g.asm.SUBSi(r, r, 1)
	g.asm.Bc(a64.NE, label)
}

func (g *a64Gen) exit() {
	g.asm.MOV64(0, 0)
	g.asm.MOV64(8, 93)
	g.asm.SVC()
}

func (g *a64Gen) build(data []byte) (*elfio.File, error) {
	return g.asm.Build(a64.Program{
		TextBase: TextBase,
		DataBase: DataBase,
		Data:     data,
	})
}

func (g *a64Gen) movImm(r uint8, v int64) { g.asm.MOV64(r, v) }

func (g *a64Gen) mov(fp bool, dst, src uint8) {
	if fp {
		g.asm.FMOV(dst, src)
	} else {
		g.asm.MOV(dst, src)
	}
}

// materialiseF loads an FP constant into fr, preferring the FMOV
// immediate form.
func (g *a64Gen) materialiseF(c float64, fr uint8) {
	if g.asm.FMOVimm(fr, c) {
		return
	}
	t, err := g.intPool.alloc()
	if err != nil {
		g.fail(err)
		return
	}
	g.asm.MOV64(t, int64(f64bitsOf(c)))
	g.asm.FMOVDX(fr, t)
	g.intPool.free(t)
}

// access emits a load or store of arr[idx], exploiting AArch64's
// addressing modes: unsigned scaled immediates for constant indexes
// and register-offset with lsl #3 otherwise (the paper's Listing 1
// form); accesses matching a hoisted stream base use it directly.
// valReg is the data register; isLoad selects the direction.
func (g *a64Gen) access(arr *ir.Array, idx ir.Expr, valReg uint8, isLoad bool) error {
	fp := arr.Elem == ir.F64
	op := a64.STR
	if isLoad {
		op = a64.LDR
	}
	if c, ok := constFold(idx); ok {
		off := c * 8
		if off >= 0 && off <= 4095*8 {
			g.asm.Emit(a64.Inst{Op: op, Size: 8, FP: fp, Rd: valReg, Rn: g.arrBase[arr], Imm: off})
			return nil
		}
	}
	// Hoisted stream base: one register-offset access.
	for i := len(g.loops) - 1; i >= 0; i-- {
		ctx := g.loops[i]
		if s, ok := matchStream(arr, idx, ctx.lv); ok {
			if base, ok := ctx.bases[s]; ok {
				g.asm.Emit(a64.Inst{
					Op: op, Size: 8, FP: fp, Rd: valReg, Rn: base,
					Rm: g.vars[ctx.lv], Mode: a64.ModeReg, ShiftAmt: 3,
				})
				return nil
			}
			break
		}
	}
	r, owned, err := g.evalI(idx, noReg)
	if err != nil {
		return err
	}
	g.asm.Emit(a64.Inst{
		Op: op, Size: 8, FP: fp, Rd: valReg, Rn: g.arrBase[arr], Rm: r,
		Mode: a64.ModeReg, ShiftAmt: 3,
	})
	if owned {
		g.intPool.free(r)
	}
	return nil
}

func (g *a64Gen) loadElem(ld ir.LoadExpr, fp bool, dest uint8) (uint8, bool, error) {
	r, owned, err := g.pool(fp).into(dest)
	if err != nil {
		return 0, false, err
	}
	if err := g.access(ld.Arr, ld.Index, r, true); err != nil {
		return 0, false, err
	}
	return r, owned, nil
}

func (g *a64Gen) storeElem(arr *ir.Array, idx ir.Expr, v uint8) error {
	return g.access(arr, idx, v, false)
}

// loop generates a counted loop in the AArch64 style: an element index
// register incremented each iteration, with the flavour-specific exit
// comparison the paper analyses in section 3.3.
func (g *a64Gen) loop(l *ir.Loop) error {
	startC, startConst := constFold(l.Start)
	endC, endConst := constFold(l.End)
	if startConst && endConst && endC <= startC {
		return nil
	}

	idxReg, err := g.varReg(l.Var)
	if err != nil {
		return err
	}
	if startConst {
		g.asm.MOV64(idxReg, startC)
	} else {
		r, owned, err := g.evalI(l.Start, idxReg)
		if err != nil {
			return err
		}
		if r != idxReg {
			g.asm.MOV(idxReg, r)
			if owned {
				g.intPool.free(r)
			}
		}
	}

	// Decide the exit-comparison strategy.
	type exitKind uint8
	const (
		exitCmpReg  exitKind = iota // cmp xI, xEnd
		exitCmpImm                  // cmp xI, #imm
		exitSubSubs                 // sub xT, xI, #hi, lsl 12; subs xT, xT, #lo
	)
	kind := exitCmpReg
	var endReg, scratch uint8 = noReg, noReg
	endOwned := false
	var hi, lo int64
	switch {
	case endConst && endC >= 0 && endC <= 4095:
		kind = exitCmpImm
	case endConst && g.flavor == GCC9 && endC >= 0 && endC < 1<<24:
		// The GCC 9.2 idiom: recompute (i - end) each iteration.
		kind = exitSubSubs
		hi, lo = endC>>12, endC&0xfff
		scratch, err = g.intPool.alloc()
		if err != nil {
			return err
		}
	case endConst:
		// GCC 12.2 (and 9.2 for >24-bit bounds): hoist the bound.
		endReg, err = g.intPool.alloc()
		if err != nil {
			return err
		}
		endOwned = true
		g.asm.MOV64(endReg, endC)
	default:
		r, owned, err := g.evalI(l.End, noReg)
		if err != nil {
			return err
		}
		endReg, endOwned = r, owned
	}

	doneL := g.label("done")
	loopL := g.label("loop")
	if !(startConst && endConst) {
		// Guard against empty loops.
		switch kind {
		case exitCmpImm:
			g.asm.CMPi(idxReg, endC)
		case exitSubSubs:
			g.asm.SUBiHi(scratch, idxReg, hi)
			g.asm.SUBSi(scratch, scratch, lo)
		default:
			g.asm.CMP(idxReg, endReg)
		}
		g.asm.Bc(a64.GE, doneL)
	}

	// Bind every variable the body assigns before hoisting stream
	// bases, so the spare-register margin only has to cover expression
	// temporaries.
	if err := g.prebindVars(l.Body); err != nil {
		return err
	}

	// Hoist loop-invariant stream bases (&arr[inv]) so grid accesses
	// like xvel[rowN + ii] stay single register-offset instructions,
	// as GCC's invariant-address motion keeps them.
	ctx := &a64LoopCtx{lv: l.Var, bases: map[stream]uint8{}}
	var hoisted []uint8
	if !hasInnerLoop(l.Body) && !g.opts.NoHoisting {
		info := analyseLoop(l.Body, l.Var)
		for _, s := range info.streams {
			if s.invVar == nil && s.invConst == 0 {
				continue // the plain array base already serves
			}
			if s.invVar != nil {
				if _, bound := g.vars[s.invVar]; !bound || assignedIn(l.Body, s.invVar) {
					continue
				}
			}
			if len(g.intPool.order)-g.intPool.inUse() <= 3 {
				break
			}
			base, err := g.intPool.alloc()
			if err != nil {
				break
			}
			if s.invVar != nil {
				g.asm.ADDshift(base, g.arrBase[s.arr], g.vars[s.invVar], a64.LSL, 3)
			} else {
				off := s.invConst * 8
				switch {
				case off >= 0 && off <= 4095:
					g.asm.ADDi(base, g.arrBase[s.arr], off)
				case off < 0 && -off <= 4095:
					g.asm.SUBi(base, g.arrBase[s.arr], -off)
				default:
					g.asm.MOV64(base, off)
					g.asm.ADD(base, base, g.arrBase[s.arr])
				}
			}
			ctx.bases[s] = base
			hoisted = append(hoisted, base)
		}
	}

	g.text.Label(loopL)
	g.loops = append(g.loops, ctx)
	if err := g.stmts(l.Body); err != nil {
		return err
	}
	g.loops = g.loops[:len(g.loops)-1]
	for _, r := range hoisted {
		g.intPool.free(r)
	}

	// Increment and exit test: AArch64 pays a separate NZCV-setting
	// instruction before every conditional branch.
	g.asm.ADDi(idxReg, idxReg, 1)
	switch kind {
	case exitCmpImm:
		g.asm.CMPi(idxReg, endC)
	case exitSubSubs:
		g.asm.SUBiHi(scratch, idxReg, hi)
		g.asm.SUBSi(scratch, scratch, lo)
	default:
		g.asm.CMP(idxReg, endReg)
	}
	g.asm.Bc(a64.NE, loopL)
	g.text.Label(doneL)

	if scratch != noReg {
		g.intPool.free(scratch)
	}
	if endOwned && endReg != noReg {
		g.intPool.free(endReg)
	}
	return g.err
}
