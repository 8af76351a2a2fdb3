package cc

import (
	"isacmp/internal/a64"
	"isacmp/internal/ir"
)

// condFor maps an IR comparison to the AArch64 condition that holds
// when it is true. Integer comparisons use the signed conditions; FP
// comparisons after FCMP must use MI/LS for the less-than orders so
// that unordered (NaN) operands make every order false, exactly as C
// requires and as GCC selects.
func condFor(op ir.BinOp, fp bool) a64.Cond {
	switch op {
	case ir.Lt:
		if fp {
			return a64.MI
		}
		return a64.LT
	case ir.Le:
		if fp {
			return a64.LS
		}
		return a64.LE
	case ir.Eq:
		return a64.EQ
	case ir.Ne:
		return a64.NE
	case ir.Gt:
		return a64.GT
	default: // Ge
		return a64.GE
	}
}

// matchIntMAdd recognises a*b+c and c-a*b integer trees that lower to
// madd/msub, an AArch64 capability RV64G lacks.
func matchIntMAdd(e ir.Expr) (a, b, c ir.Expr, sub bool, ok bool) {
	bin, isBin := e.(ir.Bin)
	if !isBin || bin.Type() != ir.I64 {
		return nil, nil, nil, false, false
	}
	asMul := func(x ir.Expr) (ir.Expr, ir.Expr, bool) {
		m, isMul := x.(ir.Bin)
		if isMul && m.Op == ir.Mul {
			return m.A, m.B, true
		}
		return nil, nil, false
	}
	switch bin.Op {
	case ir.Add:
		if ma, mb, isMul := asMul(bin.A); isMul {
			return ma, mb, bin.B, false, true
		}
		if ma, mb, isMul := asMul(bin.B); isMul {
			return ma, mb, bin.A, false, true
		}
	case ir.Sub:
		if ma, mb, isMul := asMul(bin.B); isMul {
			return ma, mb, bin.A, true, true
		}
	}
	return nil, nil, nil, false, false
}

// mulAdd contracts a*b+c and c-a*b into madd/msub.
func (g *a64Gen) mulAdd(ex ir.Bin, dest uint8) (uint8, bool, bool, error) {
	a, b, c, sub, ok := matchIntMAdd(ex)
	if !ok {
		return 0, false, false, nil
	}
	ra, aOwned, err := g.evalI(a, noReg)
	if err != nil {
		return 0, false, true, err
	}
	rb, bOwned, err := g.evalI(b, noReg)
	if err != nil {
		return 0, false, true, err
	}
	rc, cOwned, err := g.evalI(c, noReg)
	if err != nil {
		return 0, false, true, err
	}
	r, owned, err := g.intPool.into(dest)
	if err != nil {
		return 0, false, true, err
	}
	if sub {
		g.asm.MSUB(r, ra, rb, rc)
	} else {
		g.asm.MADD(r, ra, rb, rc)
	}
	if aOwned {
		g.intPool.free(ra)
	}
	if bOwned {
		g.intPool.free(rb)
	}
	if cOwned {
		g.intPool.free(rc)
	}
	return r, owned, true, nil
}

// compare materialises a comparison: cmp/fcmp + cset, the extra
// flag-setting instruction RISC-V avoids.
func (g *a64Gen) compare(ex ir.Bin, dest uint8) (uint8, bool, error) {
	if err := g.emitCompare(ex); err != nil {
		return 0, false, err
	}
	r, owned, err := g.intPool.into(dest)
	if err != nil {
		return 0, false, err
	}
	g.asm.CSET(r, condFor(ex.Op, ex.A.Type() == ir.F64))
	return r, owned, nil
}

// immOK accepts the 12-bit unsigned arithmetic immediates, shift
// amounts and logical bitmask immediates.
func (g *a64Gen) immOK(op ir.BinOp, c int64) bool {
	switch op {
	case ir.Add, ir.Sub:
		return c >= 0 && c <= 4095
	case ir.Shl, ir.Shr:
		return c >= 0 && c < 64
	case ir.And:
		_, _, _, ok := a64.EncodeBitmask(uint64(c), true)
		return ok
	}
	return false
}

func (g *a64Gen) opImm(op ir.BinOp, r, a uint8, c int64) {
	switch op {
	case ir.Add:
		g.asm.ADDi(r, a, c)
	case ir.Sub:
		g.asm.SUBi(r, a, c)
	case ir.Shl:
		g.asm.LSLi(r, a, uint8(c))
	case ir.Shr:
		g.asm.LSRi(r, a, uint8(c))
	case ir.And:
		g.asm.ANDi(r, a, uint64(c))
	}
}

func (g *a64Gen) opI(op ir.BinOp, r, a, b uint8) error {
	switch op {
	case ir.Add:
		g.asm.ADD(r, a, b)
	case ir.Sub:
		g.asm.SUB(r, a, b)
	case ir.Mul:
		g.asm.MUL(r, a, b)
	case ir.Div:
		g.asm.SDIV(r, a, b)
	case ir.Rem:
		// AArch64 has no remainder: sdiv t, a, b; msub r, t, b, a.
		t, err := g.intPool.alloc()
		if err != nil {
			return err
		}
		g.asm.SDIV(t, a, b)
		g.asm.MSUB(r, t, b, a)
		g.intPool.free(t)
	case ir.And:
		g.asm.AND(r, a, b)
	case ir.Or:
		g.asm.ORR(r, a, b)
	case ir.Shl:
		g.asm.Emit(a64.Inst{Op: a64.LSLV, Sf: true, Rd: r, Rn: a, Rm: b})
	case ir.Shr:
		g.asm.Emit(a64.Inst{Op: a64.LSRV, Sf: true, Rd: r, Rn: a, Rm: b})
	default:
		return g.errorf("op %d invalid on i64", op)
	}
	return nil
}

func (g *a64Gen) unI(op ir.UnOp, r, a uint8) error {
	switch op {
	case ir.Neg:
		// neg r, a == sub r, xzr, a
		g.asm.Emit(a64.Inst{Op: a64.SUBr, Sf: true, Rd: r, Rn: a64.ZR, Rm: a})
	case ir.Abs:
		// cmp a, #0; csneg r, a, a, ge
		g.asm.CMPi(a, 0)
		g.asm.Emit(a64.Inst{Op: a64.CSNEG, Sf: true, Rd: r, Rn: a, Rm: a, Cond: a64.GE})
	default:
		return g.errorf("unary op %d on i64", op)
	}
	return nil
}

func (g *a64Gen) cvtI(r, f uint8) { g.asm.FCVTZS(r, f) }

// emitCompare sets NZCV for a comparison expression (cmp or fcmp).
func (g *a64Gen) emitCompare(ex ir.Bin) error {
	if ex.A.Type() == ir.F64 {
		a, aOwned, err := g.evalF(ex.A, noReg)
		if err != nil {
			return err
		}
		b, bOwned, err := g.evalF(ex.B, noReg)
		if err != nil {
			return err
		}
		g.asm.FCMP(a, b)
		if aOwned {
			g.fpPool.free(a)
		}
		if bOwned {
			g.fpPool.free(b)
		}
		return nil
	}
	a, aOwned, err := g.evalI(ex.A, noReg)
	if err != nil {
		return err
	}
	// cmp with immediate when possible.
	if c, ok := constFold(ex.B); ok && c >= 0 && c <= 4095 {
		g.asm.CMPi(a, c)
		if aOwned {
			g.intPool.free(a)
		}
		return nil
	}
	b, bOwned, err := g.evalI(ex.B, noReg)
	if err != nil {
		return err
	}
	g.asm.CMP(a, b)
	if aOwned {
		g.intPool.free(a)
	}
	if bOwned {
		g.intPool.free(b)
	}
	return nil
}

func (g *a64Gen) fma(kind ir.FMAKind, r, a, b, c uint8) {
	switch kind {
	case ir.FMAAdd: // a*b + c
		g.asm.FMADD(r, a, b, c)
	case ir.FMASub: // a*b - c: fnmsub r, a, b, c
		g.asm.Emit(a64.Inst{Op: a64.FNMSUB, Dbl: true, Rd: r, Rn: a, Rm: b, Ra: c})
	default: // c - a*b: fmsub r, a, b, c
		g.asm.FMSUB(r, a, b, c)
	}
}

func (g *a64Gen) opF(op ir.BinOp, r, a, b uint8) error {
	switch op {
	case ir.Add:
		g.asm.FADD(r, a, b)
	case ir.Sub:
		g.asm.FSUB(r, a, b)
	case ir.Mul:
		g.asm.FMUL(r, a, b)
	case ir.Div:
		g.asm.FDIV(r, a, b)
	case ir.Min:
		g.asm.FMIN(r, a, b)
	case ir.Max:
		g.asm.FMAX(r, a, b)
	default:
		return g.errorf("op %d invalid on f64", op)
	}
	return nil
}

func (g *a64Gen) unF(op ir.UnOp, r, a uint8) {
	switch op {
	case ir.Neg:
		g.asm.FNEG(r, a)
	case ir.Sqrt:
		g.asm.FSQRT(r, a)
	case ir.Abs:
		g.asm.FABS(r, a)
	}
}

func (g *a64Gen) cvtF(r, a uint8) { g.asm.SCVTF(r, a) }

// branchUnless: a comparison condition becomes cmp/fcmp + b.cond (two
// instructions — the AArch64 branching cost the paper measures); any
// other condition uses cbz.
func (g *a64Gen) branchUnless(cond ir.Expr, target string) error {
	if cmp, ok := cond.(ir.Bin); ok && cmp.Op >= ir.Lt && cmp.Op <= ir.Ge {
		if err := g.emitCompare(cmp); err != nil {
			return err
		}
		g.asm.Bc(condFor(cmp.Op, cmp.A.Type() == ir.F64).Invert(), target)
		return nil
	}
	c, owned, err := g.evalI(cond, noReg)
	if err != nil {
		return err
	}
	g.asm.CBZx(c, target)
	if owned {
		g.intPool.free(c)
	}
	return nil
}

func (g *a64Gen) jump(target string) { g.asm.B(target) }
