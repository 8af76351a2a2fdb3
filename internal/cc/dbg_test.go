package cc

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"testing"

	"isacmp/internal/a64"
	"isacmp/internal/ir"
	"isacmp/internal/isa"
	"isacmp/internal/rv64"
	"isacmp/internal/simeng"
)

func dumpExpr(e ir.Expr) string {
	switch ex := e.(type) {
	case ir.ConstI:
		return fmt.Sprintf("%d", ex.V)
	case ir.ConstF:
		return fmt.Sprintf("%g", ex.V)
	case ir.VarRef:
		return ex.Var.Name
	case ir.LoadExpr:
		return fmt.Sprintf("%s[%s]", ex.Arr.Name, dumpExpr(ex.Index))
	case ir.Bin:
		return fmt.Sprintf("(%s op%d %s)", dumpExpr(ex.A), ex.Op, dumpExpr(ex.B))
	case ir.Un:
		return fmt.Sprintf("un%d(%s)", ex.Op, dumpExpr(ex.A))
	case ir.Cvt:
		return fmt.Sprintf("cvt%d(%s)", ex.To, dumpExpr(ex.A))
	}
	return "?"
}

func dumpStmts(stmts []ir.Stmt, ind string, sb *strings.Builder) {
	for _, s := range stmts {
		switch st := s.(type) {
		case *ir.Loop:
			fmt.Fprintf(sb, "%sfor %s = %s .. %s {\n", ind, st.Var.Name, dumpExpr(st.Start), dumpExpr(st.End))
			dumpStmts(st.Body, ind+"  ", sb)
			fmt.Fprintf(sb, "%s}\n", ind)
		case *ir.Store:
			fmt.Fprintf(sb, "%s%s[%s] = %s\n", ind, st.Arr.Name, dumpExpr(st.Index), dumpExpr(st.Val))
		case *ir.Assign:
			fmt.Fprintf(sb, "%s%s = %s\n", ind, st.Var.Name, dumpExpr(st.Val))
		case *ir.If:
			fmt.Fprintf(sb, "%sif %s {\n", ind, dumpExpr(st.Cond))
			dumpStmts(st.Then, ind+"  ", sb)
			if len(st.Else) > 0 {
				fmt.Fprintf(sb, "%s} else {\n", ind)
				dumpStmts(st.Else, ind+"  ", sb)
			}
			fmt.Fprintf(sb, "%s}\n", ind)
		}
	}
}

// TestFuzzDebug is a diagnostic for differential-fuzz failures: run
// with FUZZDBG=<seed> to dump the generated program, per-target result
// mismatches, and a disassembly of the hottest kernel when a run
// exceeds its instruction budget.
func TestFuzzDebug(t *testing.T) {
	seedStr := os.Getenv("FUZZDBG")
	if seedStr == "" {
		t.Skip("set FUZZDBG=<seed>")
	}
	seed, err := strconv.ParseInt(seedStr, 10, 64)
	if err != nil {
		t.Fatalf("bad FUZZDBG value: %v", err)
	}
	r := rand.New(rand.NewSource(seed))
	prog := ir.RandomProgram(r)
	var sb strings.Builder
	for _, k := range prog.Kernels {
		fmt.Fprintf(&sb, "kernel %s:\n", k.Name)
		dumpStmts(k.Body, "  ", &sb)
	}
	t.Log("\n" + sb.String())
	ref := ir.NewInterp(prog)
	if err := ref.Run(); err != nil {
		t.Fatal(err)
	}
	for _, tgt := range Targets() {
		c, cerr := Compile(prog, tgt)
		if cerr != nil {
			t.Logf("%s: compile: %v", tgt, cerr)
			continue
		}
		mach, m, err := c.NewMachine()
		if err != nil {
			t.Fatal(err)
		}
		hot := map[uint64]uint64{}
		_, rerr := (&simeng.EmulationCore{MaxInstructions: 1_000_000}).Run(mach,
			isa.SinkFunc(func(ev *isa.Event) { hot[ev.PC]++ }))
		if rerr != nil {
			// Find the hottest PCs and disassemble around them.
			var maxPC, maxN uint64
			for pc, n := range hot {
				if n > maxN {
					maxPC, maxN = pc, n
				}
			}
			t.Logf("%s: hottest pc %#x (%d hits)", tgt, maxPC, maxN)
			lo, hi := maxPC-40, maxPC+160
			for _, sym := range c.File.Symbols {
				if maxPC >= sym.Value && maxPC < sym.Value+sym.Size {
					lo, hi = sym.Value, sym.Value+sym.Size
					t.Logf("(kernel %s)", sym.Name)
				}
			}
			for pc := lo; pc <= hi; pc += 4 {
				var line string
				if tgt.Arch == isa.AArch64 {
					if in, ok := mach.(*a64.Machine).InstAt(pc); ok {
						line = in.String()
					}
				} else {
					if in, ok := mach.(*rv64.Machine).InstAt(pc); ok {
						line = in.String()
					}
				}
				t.Logf("  %#x: %s", pc, line)
			}
		}
		bad := 0
		for _, arr := range prog.Arrays {
			base := c.ArrayBase[arr.Name]
			for i := 0; i < arr.Len; i++ {
				bits, _ := m.Read64(base + uint64(i)*8)
				if arr.Elem == ir.F64 {
					if bits != math.Float64bits(ref.ArrF[arr.Name][i]) {
						if bad < 5 {
							t.Logf("%s: %s[%d] got %v want %v", tgt, arr.Name, i,
								math.Float64frombits(bits), ref.ArrF[arr.Name][i])
						}
						bad++
					}
				} else if int64(bits) != ref.ArrI[arr.Name][i] {
					if bad < 5 {
						t.Logf("%s: %s[%d] got %d want %d", tgt, arr.Name, i,
							int64(bits), ref.ArrI[arr.Name][i])
					}
					bad++
				}
			}
		}
		t.Logf("%s: runErr=%v badCells=%d", tgt, rerr, bad)
	}
}
