package cc

import (
	"isacmp/internal/ir"
	"isacmp/internal/rv64"
)

// mulAdd: RV64G has no integer multiply-add, so a*b+c stays a mul and
// an add.
func (g *rvGen) mulAdd(ir.Bin, uint8) (uint8, bool, bool, error) { return 0, false, false, nil }

// immOK accepts the 12-bit signed I-type immediates (subtraction folds
// as addi of the negated constant) and shift amounts.
func (g *rvGen) immOK(op ir.BinOp, c int64) bool {
	switch op {
	case ir.Add, ir.And, ir.Or:
		return c >= -2048 && c < 2048
	case ir.Sub:
		return -c >= -2048 && -c < 2048
	case ir.Shl, ir.Shr:
		return c >= 0 && c < 64
	}
	return false
}

func (g *rvGen) opImm(op ir.BinOp, r, a uint8, c int64) {
	switch op {
	case ir.Add:
		g.asm.ADDI(r, a, c)
	case ir.Sub:
		g.asm.ADDI(r, a, -c)
	case ir.And:
		g.asm.ANDI(r, a, c)
	case ir.Or:
		g.asm.ORI(r, a, c)
	case ir.Shl:
		g.asm.SLLI(r, a, c)
	case ir.Shr:
		g.asm.SRLI(r, a, c)
	}
}

func (g *rvGen) opI(op ir.BinOp, r, a, b uint8) error {
	switch op {
	case ir.Add:
		g.asm.ADD(r, a, b)
	case ir.Sub:
		g.asm.SUB(r, a, b)
	case ir.Mul:
		g.asm.MUL(r, a, b)
	case ir.Div:
		g.asm.DIV(r, a, b)
	case ir.Rem:
		g.asm.REM(r, a, b)
	case ir.And:
		g.asm.AND(r, a, b)
	case ir.Or:
		g.asm.OR(r, a, b)
	case ir.Shl:
		g.asm.SLL(r, a, b)
	case ir.Shr:
		g.asm.SRL(r, a, b)
	default:
		return g.errorf("op %d invalid on i64", op)
	}
	return nil
}

func (g *rvGen) unI(op ir.UnOp, r, a uint8) error {
	switch op {
	case ir.Neg:
		g.asm.SUB(r, 0, a)
	case ir.Abs:
		// srai t, a, 63; xor r, a, t; sub r, r, t
		t, err := g.intPool.alloc()
		if err != nil {
			return err
		}
		g.asm.SRAI(t, a, 63)
		g.asm.XOR(r, a, t)
		g.asm.SUB(r, r, t)
		g.intPool.free(t)
	default:
		return g.errorf("unary op %d on i64", op)
	}
	return nil
}

func (g *rvGen) cvtI(r, f uint8) { g.asm.FCVTLD(r, f) }

// compare materialises a comparison as 0/1, using slt/sltu for the
// integer orders and flt/fle/feq for FP.
func (g *rvGen) compare(ex ir.Bin, dest uint8) (uint8, bool, error) {
	if ex.A.Type() == ir.F64 {
		a, aOwned, err := g.evalF(ex.A, noReg)
		if err != nil {
			return 0, false, err
		}
		b, bOwned, err := g.evalF(ex.B, noReg)
		if err != nil {
			return 0, false, err
		}
		r, owned, err := g.intPool.into(dest)
		if err != nil {
			return 0, false, err
		}
		negate := false
		switch ex.Op {
		case ir.Lt:
			g.asm.FLTD(r, a, b)
		case ir.Le:
			g.asm.FLED(r, a, b)
		case ir.Gt:
			g.asm.FLTD(r, b, a)
		case ir.Ge:
			g.asm.FLED(r, b, a)
		case ir.Eq:
			g.asm.FEQD(r, a, b)
		case ir.Ne:
			g.asm.FEQD(r, a, b)
			negate = true
		}
		if negate {
			g.asm.XORI(r, r, 1)
		}
		if aOwned {
			g.fpPool.free(a)
		}
		if bOwned {
			g.fpPool.free(b)
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
	switch ex.Op {
	case ir.Lt:
		g.asm.SLT(r, a, b)
	case ir.Gt:
		g.asm.SLT(r, b, a)
	case ir.Ge:
		g.asm.SLT(r, a, b)
		g.asm.XORI(r, r, 1)
	case ir.Le:
		g.asm.SLT(r, b, a)
		g.asm.XORI(r, r, 1)
	case ir.Eq:
		g.asm.XOR(r, a, b)
		g.asm.SLTIU(r, r, 1)
	case ir.Ne:
		g.asm.XOR(r, a, b)
		g.asm.SLTU(r, 0, r)
	}
	if aOwned {
		g.intPool.free(a)
	}
	if bOwned {
		g.intPool.free(b)
	}
	return r, owned, nil
}

func (g *rvGen) fma(kind ir.FMAKind, r, a, b, c uint8) {
	switch kind {
	case ir.FMAAdd: // a*b + c
		g.asm.FMADDD(r, a, b, c)
	case ir.FMASub: // a*b - c
		g.asm.FMSUBD(r, a, b, c)
	default: // c - a*b
		g.asm.Emit(rv64.Inst{Op: rv64.FNMSUBD, Rd: r, Rs1: a, Rs2: b, Rs3: c})
	}
}

func (g *rvGen) opF(op ir.BinOp, r, a, b uint8) error {
	switch op {
	case ir.Add:
		g.asm.FADDD(r, a, b)
	case ir.Sub:
		g.asm.FSUBD(r, a, b)
	case ir.Mul:
		g.asm.FMULD(r, a, b)
	case ir.Div:
		g.asm.FDIVD(r, a, b)
	case ir.Min:
		g.asm.FMIND(r, a, b)
	case ir.Max:
		g.asm.FMAXD(r, a, b)
	default:
		return g.errorf("op %d invalid on f64", op)
	}
	return nil
}

func (g *rvGen) unF(op ir.UnOp, r, a uint8) {
	switch op {
	case ir.Neg:
		g.asm.FNEGD(r, a)
	case ir.Sqrt:
		g.asm.FSQRTD(r, a)
	case ir.Abs:
		g.asm.FABSD(r, a)
	}
}

func (g *rvGen) cvtF(r, a uint8) { g.asm.FCVTDL(r, a) }

// branchUnless branches directly on the fused compare-and-branch
// instructions when the condition is an integer comparison — the
// RISC-V branching advantage the paper quantifies.
func (g *rvGen) branchUnless(cond ir.Expr, target string) error {
	if cmp, ok := cond.(ir.Bin); ok && cmp.Op >= ir.Lt && cmp.Op <= ir.Ge && cmp.A.Type() == ir.I64 {
		// Branch on the negated condition.
		a, aOwned, err := g.evalI(cmp.A, noReg)
		if err != nil {
			return err
		}
		b, bOwned, err := g.evalI(cmp.B, noReg)
		if err != nil {
			return err
		}
		switch cmp.Op {
		case ir.Lt:
			g.asm.BGE(a, b, target)
		case ir.Ge:
			g.asm.BLT(a, b, target)
		case ir.Gt:
			g.asm.BGE(b, a, target)
		case ir.Le:
			g.asm.BLT(b, a, target)
		case ir.Eq:
			g.asm.BNE(a, b, target)
		case ir.Ne:
			g.asm.BEQ(a, b, target)
		}
		if aOwned {
			g.intPool.free(a)
		}
		if bOwned {
			g.intPool.free(b)
		}
		return nil
	}
	// Materialise the condition and branch on zero.
	c, owned, err := g.evalI(cond, noReg)
	if err != nil {
		return err
	}
	g.asm.BEQ(c, 0, target)
	if owned {
		g.intPool.free(c)
	}
	return nil
}

func (g *rvGen) jump(target string) { g.asm.J(target) }
