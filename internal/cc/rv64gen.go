package cc

import (
	"isacmp/internal/elfio"
	"isacmp/internal/ir"
	"isacmp/internal/rv64"
)

// maxPointerStreams caps how many unit-stride access streams a loop
// may strength-reduce into pointer walks before register pressure
// forces computed addressing, mirroring GCC's induction-variable
// selection under pressure.
const maxPointerStreams = 6

// rvGen is the RV64G instruction selector.
type rvGen struct {
	*gen
	asm    *rv64.Asm
	flavor Flavor
	loops  []*rvLoopCtx
}

type rvLoopCtx struct {
	lv   *ir.Var
	ptrs map[stream]uint8
	// scaledIdx, when not noReg, holds lv*8 as an extra induction
	// variable shared by computed accesses (GCC materialises the same
	// thing when several arrays are indexed by one variable).
	scaledIdx uint8
}

// compileRV64 lowers the program for RV64G. GCC 9.2 and 12.2 generate
// the same inner-loop code on RISC-V (the paper found the main kernels
// identical between the two); the flavour only changes the prologue,
// where GCC 9.2 re-zeroes the argument registers redundantly.
func compileRV64(p *ir.Program, flavor Flavor, lay *dataLayout, opts Options) (*elfio.File, error) {
	g := &rvGen{asm: rv64.NewAsm(), flavor: flavor}
	// Temporaries first, then saved registers. x2/x3/x4 are sp/gp/tp;
	// everything else is fair game — the generated code is one leaf
	// function, so ra (x1) and the syscall argument registers
	// (a0/a1/a7) are free until the exit sequence overwrites them,
	// exactly as GCC allocates in leaf code.
	g.gen = newGen(g, g.asm, "rv64gen", lay, opts,
		[]uint8{
			5, 6, 7, 28, 29, 30, 31, 12, 13, 14, 15, 16,
			8, 9, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27,
			10, 11, 17, 1,
		},
		[]uint8{
			0, 1, 2, 3, 4, 5, 6, 7, 28, 29, 30, 31,
			10, 11, 12, 13, 14, 15, 16, 17,
			8, 9, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27,
		})
	return g.program(p)
}

// prologue: GCC 9.2's crt0-level code is a touch more verdant; model
// the paper's small whole-binary deltas with a few extra
// register-clearing instructions.
func (g *rvGen) prologue() {
	if g.flavor == GCC9 {
		for _, r := range []uint8{10, 11, 12} {
			g.asm.MV(r, 0)
		}
	}
}

func (g *rvGen) countDown(r uint8, label string) {
	g.asm.ADDI(r, r, -1)
	g.asm.BNE(r, 0, label)
}

func (g *rvGen) exit() {
	g.asm.LI(10, 0)
	g.asm.LI(17, 93)
	g.asm.ECALL()
}

func (g *rvGen) build(data []byte) (*elfio.File, error) {
	return g.asm.Build(rv64.Program{
		TextBase: TextBase,
		DataBase: DataBase,
		Data:     data,
	})
}

func (g *rvGen) movImm(r uint8, v int64) { g.asm.LI(r, v) }

func (g *rvGen) mov(fp bool, dst, src uint8) {
	if fp {
		g.asm.FMVD(dst, src)
	} else {
		g.asm.MV(dst, src)
	}
}

// materialiseF loads an FP constant into fr.
func (g *rvGen) materialiseF(c float64, fr uint8) {
	bits := int64(f64bitsOf(c))
	if bits == 0 {
		g.asm.FMVDX(fr, 0)
		return
	}
	t, err := g.intPool.alloc()
	if err != nil {
		g.fail(err)
		return
	}
	g.asm.LI(t, bits)
	g.asm.FMVDX(fr, t)
	g.intPool.free(t)
}

// addr prepares the (base register, immediate) pair for an array
// access, using a loop pointer when the index matches a strength-
// reduced stream, a folded immediate when the index is constant, and
// computed addressing otherwise. The returned release function frees
// any temporary.
func (g *rvGen) addr(arr *ir.Array, idx ir.Expr) (base uint8, off int64, release func(), err error) {
	nop := func() {}
	// Innermost matching pointer stream, or the shared scaled index.
	for i := len(g.loops) - 1; i >= 0; i-- {
		ctx := g.loops[i]
		if s, ok := matchStream(arr, idx, ctx.lv); ok {
			if ptr, ok := ctx.ptrs[s]; ok {
				return ptr, 0, nop, nil
			}
			if ctx.scaledIdx != noReg && s.invVar == nil {
				byteOff := s.invConst * 8
				if byteOff >= -2048 && byteOff < 2048 {
					t, err := g.intPool.alloc()
					if err != nil {
						break
					}
					g.asm.ADD(t, g.arrBase[arr], ctx.scaledIdx)
					return t, byteOff, func() { g.intPool.free(t) }, nil
				}
			}
			break
		}
	}
	// Constant index with a reachable immediate.
	if c, ok := constFold(idx); ok {
		byteOff := c * 8
		if byteOff >= -2048 && byteOff < 2048 {
			return g.arrBase[arr], byteOff, nop, nil
		}
	}
	// Computed: slli t, idx, 3; add t, t, base.
	r, owned, err := g.evalI(idx, noReg)
	if err != nil {
		return 0, 0, nop, err
	}
	t, err := g.intPool.alloc()
	if err != nil {
		return 0, 0, nop, err
	}
	g.asm.SLLI(t, r, 3)
	if owned {
		g.intPool.free(r)
	}
	g.asm.ADD(t, t, g.arrBase[arr])
	return t, 0, func() { g.intPool.free(t) }, nil
}

// loadElem loads through addr's (base, immediate) pair.
func (g *rvGen) loadElem(ld ir.LoadExpr, fp bool, dest uint8) (uint8, bool, error) {
	base, off, release, err := g.addr(ld.Arr, ld.Index)
	if err != nil {
		return 0, false, err
	}
	r, owned, err := g.pool(fp).into(dest)
	if err != nil {
		return 0, false, err
	}
	if fp {
		g.asm.FLD(r, base, off)
	} else {
		g.asm.LD(r, base, off)
	}
	release()
	return r, owned, nil
}

func (g *rvGen) storeElem(arr *ir.Array, idx ir.Expr, v uint8) error {
	base, off, release, err := g.addr(arr, idx)
	if err != nil {
		return err
	}
	if arr.Elem == ir.F64 {
		g.asm.FSD(v, base, off)
	} else {
		g.asm.SD(v, base, off)
	}
	release()
	return nil
}

// loop generates a counted loop, choosing pointer mode when the loop
// variable is used only through unit-stride accesses (the paper's
// Listing 2 shape) and index mode otherwise.
func (g *rvGen) loop(l *ir.Loop) error {
	startC, startConst := constFold(l.Start)
	endC, endConst := constFold(l.End)
	if startConst && endConst && endC <= startC {
		return nil // statically empty
	}

	info := analyseLoop(l.Body, l.Var)
	// Strength-reduce only innermost loops: outer loops run rarely and
	// their pointers would starve the inner loops of registers (GCC's
	// induction-variable optimisation makes the same trade).
	if hasInnerLoop(l.Body) || g.opts.NoStrengthReduction {
		info.streams = nil
		info.otherUses = true
	}
	// Validate stream invariants and apply the pointer cap.
	var streams []stream
	needIndex := info.otherUses
	for _, s := range info.streams {
		if s.invVar != nil && assignedIn(l.Body, s.invVar) {
			needIndex = true // access must be computed, uses the index
			continue
		}
		if len(streams) == maxPointerStreams {
			needIndex = true
			continue
		}
		streams = append(streams, s)
	}
	if len(streams) == 0 {
		needIndex = true
	}

	// Evaluate bounds.
	var startReg uint8
	startOwned := false
	if !startConst {
		r, owned, err := g.evalI(l.Start, noReg)
		if err != nil {
			return err
		}
		startReg, startOwned = r, owned
	}
	endReg, endOwned, err := g.evalI(l.End, noReg)
	if err != nil {
		return err
	}

	// Guard for possibly-empty loops.
	doneL := g.label("done")
	loopL := g.label("loop")
	if !(startConst && endConst) {
		if startConst {
			t, err := g.intPool.alloc()
			if err != nil {
				return err
			}
			g.asm.LI(t, startC)
			g.asm.BGE(t, endReg, doneL)
			g.intPool.free(t)
		} else {
			g.asm.BGE(startReg, endReg, doneL)
		}
	}

	// Bind every variable the body assigns (and the loop variable when
	// an index is needed) before taking pointer registers, so the
	// spare-register margin below only has to cover expression
	// temporaries.
	if err := g.prebindVars(l.Body); err != nil {
		return err
	}
	if needIndex {
		if _, err := g.varReg(l.Var); err != nil {
			return err
		}
	}

	// Pointer setup: best-effort under register pressure. A stream
	// that cannot get a pointer register falls back to computed
	// addressing, which requires the index register — mirroring GCC's
	// induction-variable selection giving up under pressure. Keep
	// registers spare for expression temporaries.
	ctx := &rvLoopCtx{lv: l.Var, ptrs: map[stream]uint8{}, scaledIdx: noReg}
	ptrOrder := make([]uint8, 0, len(streams))
	kept := streams[:0]
	for _, s := range streams {
		if len(g.intPool.order)-g.intPool.inUse() <= 3 {
			needIndex = true
			break
		}
		ptr, err := g.intPool.alloc()
		if err != nil {
			needIndex = true
			break
		}
		g.leaStream(ptr, s, startReg, startC, startConst)
		ctx.ptrs[s] = ptr
		ptrOrder = append(ptrOrder, ptr)
		kept = append(kept, s)
	}
	streams = kept
	if len(streams) == 0 {
		needIndex = true
	}

	// Termination: either an index register or an end pointer.
	var idxReg, endPtr uint8 = noReg, noReg
	if needIndex {
		r, err := g.varReg(l.Var)
		if err != nil {
			return err
		}
		idxReg = r
		if startConst {
			g.asm.LI(idxReg, startC)
		} else {
			g.asm.MV(idxReg, startReg)
		}
		// If plain unit-stride accesses were left without pointers,
		// share one scaled-index induction variable among them.
		plainLeftover := false
		for _, s := range info.streams {
			if s.invVar == nil {
				if _, got := ctx.ptrs[s]; !got {
					plainLeftover = true
					break
				}
			}
		}
		if plainLeftover && !g.opts.NoStrengthReduction && len(g.intPool.order)-g.intPool.inUse() > 2 {
			if si, err := g.intPool.alloc(); err == nil {
				ctx.scaledIdx = si
				g.asm.SLLI(si, idxReg, 3)
			}
		}
	} else {
		endPtr, err = g.intPool.alloc()
		if err != nil {
			return err
		}
		g.leaStream(endPtr, streams[0], endReg, endC, false)
	}
	if startOwned {
		g.intPool.free(startReg)
	}

	g.text.Label(loopL)
	g.loops = append(g.loops, ctx)
	if err := g.stmts(l.Body); err != nil {
		return err
	}
	g.loops = g.loops[:len(g.loops)-1]

	// Increment and branch: fused compare-and-branch, the RISC-V
	// advantage the paper highlights.
	for _, ptr := range ptrOrder {
		g.asm.ADDI(ptr, ptr, 8)
	}
	if ctx.scaledIdx != noReg {
		g.asm.ADDI(ctx.scaledIdx, ctx.scaledIdx, 8)
	}
	if needIndex {
		g.asm.ADDI(idxReg, idxReg, 1)
		g.asm.BNE(idxReg, endReg, loopL)
	} else {
		g.asm.BNE(ctx.ptrs[streams[0]], endPtr, loopL)
	}
	g.text.Label(doneL)

	if ctx.scaledIdx != noReg {
		g.intPool.free(ctx.scaledIdx)
	}
	for _, ptr := range ptrOrder {
		g.intPool.free(ptr)
	}
	if endPtr != noReg {
		g.intPool.free(endPtr)
	}
	if endOwned {
		g.intPool.free(endReg)
	}
	// The loop variable register (if bound) stays allocated: it is a
	// kernel-scoped variable and may be read after the loop.
	return g.err
}

// leaStream computes ptr = arrayBase + (bound + inv)*8, where bound is
// either a constant (boundConst true) or a register.
func (g *rvGen) leaStream(ptr uint8, s stream, boundReg uint8, boundC int64, boundConst bool) {
	base := g.arrBase[s.arr]
	switch {
	case s.invVar == nil && boundConst:
		total := (boundC + s.invConst) * 8
		if total == 0 {
			g.asm.MV(ptr, base)
		} else if total >= -2048 && total < 2048 {
			g.asm.ADDI(ptr, base, total)
		} else {
			g.asm.LI(ptr, total)
			g.asm.ADD(ptr, ptr, base)
		}
	case s.invVar == nil:
		g.asm.SLLI(ptr, boundReg, 3)
		g.asm.ADD(ptr, ptr, base)
		if s.invConst != 0 {
			off := s.invConst * 8
			if off >= -2048 && off < 2048 {
				g.asm.ADDI(ptr, ptr, off)
			} else {
				t, err := g.intPool.alloc()
				if err != nil {
					g.fail(err)
					return
				}
				g.asm.LI(t, off)
				g.asm.ADD(ptr, ptr, t)
				g.intPool.free(t)
			}
		}
	default:
		inv := g.vars[s.invVar]
		if boundConst {
			if boundC >= -2048 && boundC < 2048 {
				g.asm.ADDI(ptr, inv, boundC)
			} else {
				g.asm.LI(ptr, boundC)
				g.asm.ADD(ptr, ptr, inv)
			}
		} else {
			g.asm.ADD(ptr, inv, boundReg)
		}
		g.asm.SLLI(ptr, ptr, 3)
		g.asm.ADD(ptr, ptr, base)
	}
}
