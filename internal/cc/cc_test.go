package cc

import (
	"math"
	"testing"

	"isacmp/internal/ir"
	"isacmp/internal/isa"
	"isacmp/internal/mem"
	"isacmp/internal/simeng"
)

// runCompiled executes a compiled program to completion and returns
// the memory image and instruction count.
func runCompiled(t *testing.T, c *Compiled) (*mem.Memory, simeng.Stats) {
	t.Helper()
	mach, m, err := c.NewMachine()
	if err != nil {
		t.Fatal(err)
	}
	stats, err := (&simeng.EmulationCore{MaxInstructions: 100_000_000}).Run(mach, nil)
	if err != nil {
		t.Fatalf("%s: %v", c.Target, err)
	}
	return m, stats
}

// readF64 reads array contents from simulated memory.
func readF64(t *testing.T, m *mem.Memory, c *Compiled, name string, n int) []float64 {
	t.Helper()
	base := c.ArrayBase[name]
	out := make([]float64, n)
	for i := range out {
		bits, err := m.Read64(base + uint64(i)*8)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = math.Float64frombits(bits)
	}
	return out
}

func readI64(t *testing.T, m *mem.Memory, c *Compiled, name string, n int) []int64 {
	t.Helper()
	base := c.ArrayBase[name]
	out := make([]int64, n)
	for i := range out {
		bits, err := m.Read64(base + uint64(i)*8)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = int64(bits)
	}
	return out
}

// verifyAll compiles p for every target, runs it, and checks every
// array against the host interpreter bit for bit.
func verifyAll(t *testing.T, p *ir.Program) map[Target]simeng.Stats {
	t.Helper()
	ref := ir.NewInterp(p)
	if err := ref.Run(); err != nil {
		t.Fatalf("interpreter: %v", err)
	}
	stats := map[Target]simeng.Stats{}
	for _, tgt := range Targets() {
		c, err := Compile(p, tgt)
		if err != nil {
			t.Fatalf("%s: %v", tgt, err)
		}
		m, st := runCompiled(t, c)
		stats[tgt] = st
		for _, arr := range p.Arrays {
			if arr.Elem == ir.F64 {
				got := readF64(t, m, c, arr.Name, arr.Len)
				want := ref.ArrF[arr.Name]
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("%s: %s[%d] = %v, want %v", tgt, arr.Name, i, got[i], want[i])
					}
				}
			} else {
				got := readI64(t, m, c, arr.Name, arr.Len)
				want := ref.ArrI[arr.Name]
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s: %s[%d] = %d, want %d", tgt, arr.Name, i, got[i], want[i])
					}
				}
			}
		}
	}
	return stats
}

func streamCopy(n int) *ir.Program {
	p := ir.NewProgram("copytest")
	a := p.Array("a", ir.F64, n)
	c := p.Array("c", ir.F64, n)
	for i := 0; i < n; i++ {
		a.InitF = append(a.InitF, float64(i)*1.5+0.25)
	}
	i := ir.NewVar("i", ir.I64)
	p.Kernel("copy").Add(&ir.Loop{
		Var: i, Start: ir.CI(0), End: ir.CI(int64(n)),
		Body: []ir.Stmt{
			&ir.Store{Arr: c, Index: ir.V(i), Val: ir.Ld(a, ir.V(i))},
		},
	})
	return p
}

func TestCopyAllTargets(t *testing.T) {
	verifyAll(t, streamCopy(64))
}

func TestCopyKernelShape(t *testing.T) {
	// The generated inner loops must match the paper's listings: 5
	// instructions per element on both ISAs, with the documented
	// idioms.
	p := streamCopy(100000) // large bound: triggers the GCC9 sub/subs idiom
	type want struct {
		perIter int
	}
	for _, tgt := range Targets() {
		c, err := Compile(p, tgt)
		if err != nil {
			t.Fatal(err)
		}
		m, st := runCompiled(t, c)
		_ = m
		// Instructions per loop iteration, ignoring setup (~10 insts).
		perIter := float64(st.Instructions) / 100000
		var wantIter float64
		switch {
		case tgt.Arch == isa.RV64:
			wantIter = 5 // fld, fsd, add, add, bne
		case tgt.Flavor == GCC12:
			wantIter = 5 // ldr, str, add, cmp, b.ne
		default:
			wantIter = 6 // ldr, str, add, sub, subs, b.ne
		}
		if perIter < wantIter-0.01 || perIter > wantIter+0.01 {
			t.Errorf("%s: %.4f instructions/iteration, want %v", tgt, perIter, wantIter)
		}
	}
}

// triadProgram computes a[i] = b[i] + scalar*c[i], which must contract
// to one fused multiply-add.
func triadProgram() *ir.Program {
	const n = 32
	p := ir.NewProgram("triad")
	a := p.Array("a", ir.F64, n)
	b := p.Array("b", ir.F64, n)
	c := p.Array("c", ir.F64, n)
	for i := 0; i < n; i++ {
		b.InitF = append(b.InitF, float64(i)+0.5)
		c.InitF = append(c.InitF, 2.0-float64(i)/7)
	}
	i := ir.NewVar("i", ir.I64)
	p.Kernel("triad").Add(&ir.Loop{
		Var: i, Start: ir.CI(0), End: ir.CI(n),
		Body: []ir.Stmt{
			&ir.Store{Arr: a, Index: ir.V(i),
				Val: ir.AddE(ir.Ld(b, ir.V(i)), ir.MulE(ir.CF(3.0), ir.Ld(c, ir.V(i))))},
		},
	})
	return p
}

// TestTriadFMA: the contracted triad matches the interpreter exactly.
func TestTriadFMA(t *testing.T) {
	verifyAll(t, triadProgram())
}

// nestedProgram is a two-level grid loop with a row offset scalar.
func nestedProgram() *ir.Program {
	const nx, ny = 8, 6
	p := ir.NewProgram("nested")
	grid := p.Array("grid", ir.F64, nx*ny)
	out := p.Array("out", ir.F64, nx*ny)
	for i := 0; i < nx*ny; i++ {
		grid.InitF = append(grid.InitF, float64(i%7)+0.125)
	}
	jj := ir.NewVar("jj", ir.I64)
	ii := ir.NewVar("ii", ir.I64)
	row := ir.NewVar("row", ir.I64)
	v := ir.NewVar("v", ir.F64)
	p.Kernel("smooth").Add(&ir.Loop{
		Var: jj, Start: ir.CI(0), End: ir.CI(ny),
		Body: []ir.Stmt{
			&ir.Assign{Var: row, Val: ir.MulE(ir.V(jj), ir.CI(nx))},
			&ir.Loop{
				Var: ii, Start: ir.CI(0), End: ir.CI(nx),
				Body: []ir.Stmt{
					&ir.Assign{Var: v, Val: ir.MulE(ir.Ld(grid, ir.AddE(ir.V(row), ir.V(ii))), ir.CF(0.5))},
					&ir.Store{Arr: out, Index: ir.AddE(ir.V(row), ir.V(ii)), Val: ir.V(v)},
				},
			},
		},
	})
	return p
}

func TestNestedLoopsAndScalars(t *testing.T) {
	verifyAll(t, nestedProgram())
}

// condProgram branches on an FP comparison with an else arm and on an
// integer comparison without one.
func condProgram() *ir.Program {
	const n = 40
	p := ir.NewProgram("cond")
	a := p.Array("a", ir.F64, n)
	b := p.Array("b", ir.F64, n)
	for i := 0; i < n; i++ {
		a.InitF = append(a.InitF, float64(i)-20.0)
	}
	i := ir.NewVar("i", ir.I64)
	p.Kernel("clamp").Add(&ir.Loop{
		Var: i, Start: ir.CI(0), End: ir.CI(n),
		Body: []ir.Stmt{
			&ir.If{
				Cond: ir.B2(ir.Lt, ir.Ld(a, ir.V(i)), ir.CF(0)),
				Then: []ir.Stmt{&ir.Store{Arr: b, Index: ir.V(i), Val: ir.CF(0)}},
				Else: []ir.Stmt{&ir.Store{Arr: b, Index: ir.V(i), Val: ir.Ld(a, ir.V(i))}},
			},
			// Integer condition too (fused branch on RISC-V).
			&ir.If{
				Cond: ir.B2(ir.Eq, ir.B2(ir.Rem, ir.V(i), ir.CI(3)), ir.CI(0)),
				Then: []ir.Stmt{&ir.Store{Arr: b, Index: ir.V(i), Val: ir.CF(7)}},
			},
		},
	})
	return p
}

func TestConditionals(t *testing.T) {
	verifyAll(t, condProgram())
}

// mathopsProgram exercises sqrt, division, min and max.
func mathopsProgram() *ir.Program {
	const n = 16
	p := ir.NewProgram("mathops")
	x := p.Array("x", ir.F64, n)
	y := p.Array("y", ir.F64, n)
	for i := 0; i < n; i++ {
		x.InitF = append(x.InitF, float64(i)+1)
	}
	i := ir.NewVar("i", ir.I64)
	p.Kernel("mathops").Add(&ir.Loop{
		Var: i, Start: ir.CI(0), End: ir.CI(n),
		Body: []ir.Stmt{
			&ir.Store{Arr: y, Index: ir.V(i),
				Val: ir.B2(ir.Max,
					ir.B2(ir.Min, ir.DivE(ir.CF(10), ir.SqrtE(ir.Ld(x, ir.V(i)))), ir.CF(5)),
					ir.CF(1))},
		},
	})
	return p
}

func TestSqrtDivMinMax(t *testing.T) {
	verifyAll(t, mathopsProgram())
}

// intsProgram is an indirect gather through an integer index array,
// with an integer-to-float conversion.
func intsProgram() *ir.Program {
	const n = 24
	p := ir.NewProgram("ints")
	idx := p.Array("idx", ir.I64, n)
	val := p.Array("val", ir.F64, n)
	out := p.Array("out", ir.F64, n)
	for i := 0; i < n; i++ {
		idx.InitI = append(idx.InitI, int64((i*7)%n))
		val.InitF = append(val.InitF, float64(i)*1.25)
	}
	i := ir.NewVar("i", ir.I64)
	j := ir.NewVar("j", ir.I64)
	// Indirect access: out[i] = val[idx[i]] + float(i).
	p.Kernel("gather").Add(&ir.Loop{
		Var: i, Start: ir.CI(0), End: ir.CI(n),
		Body: []ir.Stmt{
			&ir.Assign{Var: j, Val: ir.Ld(idx, ir.V(i))},
			&ir.Store{Arr: out, Index: ir.V(i),
				Val: ir.AddE(ir.Ld(val, ir.V(j)), ir.I2F(ir.V(i)))},
		},
	})
	return p
}

func TestIntArraysAndConversions(t *testing.T) {
	verifyAll(t, intsProgram())
}

// repeatProgram increments an array in a kernel the program repeats
// four times.
func repeatProgram() *ir.Program {
	const n = 10
	p := ir.NewProgram("repeat")
	p.Repeat = 4
	acc := p.Array("acc", ir.F64, n)
	i := ir.NewVar("i", ir.I64)
	p.Kernel("inc").Add(&ir.Loop{
		Var: i, Start: ir.CI(0), End: ir.CI(n),
		Body: []ir.Stmt{
			&ir.Store{Arr: acc, Index: ir.V(i), Val: ir.AddE(ir.Ld(acc, ir.V(i)), ir.CF(1))},
		},
	})
	return p
}

func TestRepeat(t *testing.T) {
	p := repeatProgram()
	ref := ir.NewInterp(p)
	if err := ref.Run(); err != nil {
		t.Fatal(err)
	}
	for _, v := range ref.ArrF["acc"] {
		if v != 4 {
			t.Fatalf("interp repeat: %v", v)
		}
	}
	verifyAll(t, p)
}

// varboundsProgram loops from a constant to a bound loaded from memory.
func varboundsProgram() *ir.Program {
	const n = 12
	p := ir.NewProgram("varbounds")
	lenA := p.Array("len", ir.I64, 1)
	lenA.InitI = []int64{n - 2}
	out := p.Array("out", ir.F64, n)
	i := ir.NewVar("i", ir.I64)
	m := ir.NewVar("m", ir.I64)
	p.Kernel("fill").Add(
		&ir.Assign{Var: m, Val: ir.Ld(lenA, ir.CI(0))},
		&ir.Loop{
			Var: i, Start: ir.CI(2), End: ir.V(m),
			Body: []ir.Stmt{
				&ir.Store{Arr: out, Index: ir.V(i), Val: ir.I2F(ir.V(i))},
			},
		},
	)
	return p
}

func TestVariableBounds(t *testing.T) {
	verifyAll(t, varboundsProgram())
}

// emptyProgram loops up to a bound loaded from memory that is zero, so
// only the empty-loop guard keeps the body from running.
func emptyProgram() *ir.Program {
	p := ir.NewProgram("empty")
	lenA := p.Array("len", ir.I64, 1)
	lenA.InitI = []int64{0}
	out := p.Array("out", ir.F64, 4)
	i := ir.NewVar("i", ir.I64)
	m := ir.NewVar("m", ir.I64)
	p.Kernel("noop").Add(
		&ir.Assign{Var: m, Val: ir.Ld(lenA, ir.CI(0))},
		&ir.Loop{
			Var: i, Start: ir.CI(0), End: ir.V(m),
			Body: []ir.Stmt{
				&ir.Store{Arr: out, Index: ir.V(i), Val: ir.CF(99)},
			},
		},
	)
	return p
}

func TestEmptyLoopGuard(t *testing.T) {
	verifyAll(t, emptyProgram()) // out must stay zero everywhere
}

// offsetProgram accesses arr[off + i] with a constant and a variable
// offset.
func offsetProgram() *ir.Program {
	const n = 20
	p := ir.NewProgram("offset")
	a := p.Array("a", ir.F64, 2*n)
	b := p.Array("b", ir.F64, 2*n)
	for i := 0; i < 2*n; i++ {
		a.InitF = append(a.InitF, float64(i)/3)
	}
	i := ir.NewVar("i", ir.I64)
	off := ir.NewVar("off", ir.I64)
	p.Kernel("shift").Add(
		&ir.Assign{Var: off, Val: ir.CI(n)},
		&ir.Loop{
			Var: i, Start: ir.CI(0), End: ir.CI(n),
			Body: []ir.Stmt{
				// constant offset stream and variable offset stream
				&ir.Store{Arr: b, Index: ir.AddE(ir.CI(3), ir.V(i)),
					Val: ir.Ld(a, ir.AddE(ir.V(off), ir.V(i)))},
			},
		},
	)
	return p
}

// TestOffsetStreams: accesses at arr[off + i] must strength-reduce on
// RISC-V and stay correct everywhere.
func TestOffsetStreams(t *testing.T) {
	verifyAll(t, offsetProgram())
}

func TestBackendDifferencesExist(t *testing.T) {
	// The four targets must not produce identical binaries: the a64
	// GCC9/GCC12 pair differs (loop exit idiom), and the ISAs differ.
	p := streamCopy(100000)
	words := map[Target]int{}
	for _, tgt := range Targets() {
		c, err := Compile(p, tgt)
		if err != nil {
			t.Fatal(err)
		}
		words[tgt] = len(c.File.Segments[0].Data)
	}
	if words[Target{isa.AArch64, GCC9}] == words[Target{isa.AArch64, GCC12}] {
		t.Error("a64 GCC9 and GCC12 binaries have identical text size")
	}
}

// badProgram fails validation: a program runs at least once.
func badProgram() *ir.Program {
	p := ir.NewProgram("bad")
	p.Repeat = 0
	return p
}

// rbaProgram stores a variable that is never assigned.
func rbaProgram() *ir.Program {
	p := ir.NewProgram("rba")
	out := p.Array("out", ir.F64, 1)
	v := ir.NewVar("v", ir.F64)
	p.Kernel("k").Add(&ir.Store{Arr: out, Index: ir.CI(0), Val: ir.V(v)})
	return p
}

func TestCompileErrors(t *testing.T) {
	if _, err := Compile(badProgram(), Target{isa.AArch64, GCC12}); err == nil {
		t.Error("invalid program accepted")
	}
	p2 := rbaProgram()
	for _, tgt := range Targets() {
		if _, err := Compile(p2, tgt); err == nil {
			t.Errorf("%s: read-before-assign accepted", tgt)
		}
	}
}
