package rv64

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"

	"isacmp/internal/isa"
	"isacmp/internal/mem"
)

// run assembles the program, loads it into a fresh machine and executes
// until exit, returning the machine.
func run(t *testing.T, build func(a *Asm), data []byte) *Machine {
	t.Helper()
	a := NewAsm()
	build(a)
	f, err := a.Build(Program{TextBase: 0x10000, DataBase: 0x20000, Data: data})
	if err != nil {
		t.Fatal(err)
	}
	m := mem.New(0x10000, 1<<20)
	mach, err := NewMachine(f, m)
	if err != nil {
		t.Fatal(err)
	}
	var ev isa.Event
	for i := 0; i < 1_000_000; i++ {
		done, err := mach.Step(&ev)
		if err != nil {
			t.Fatalf("step %d at pc %#x: %v", i, mach.PC(), err)
		}
		if done {
			return mach
		}
	}
	t.Fatal("program did not exit")
	return nil
}

// exit emits the exit(code) sequence.
func exit(a *Asm, code int64) {
	a.LI(10, code)
	a.LI(17, isa.SysExit)
	a.ECALL()
}

func TestArithmeticEndToEnd(t *testing.T) {
	m := run(t, func(a *Asm) {
		a.LI(5, 20)
		a.LI(6, 22)
		a.ADD(7, 5, 6) // 42
		a.LI(28, 7)
		a.MUL(29, 7, 28)  // 294
		a.DIV(30, 29, 28) // 42
		a.SUB(31, 30, 7)  // 0
		a.MV(10, 29)
		a.LI(17, isa.SysExit)
		a.ECALL()
	}, nil)
	if m.ExitCode() != 294 {
		t.Fatalf("exit code = %d, want 294", m.ExitCode())
	}
	if m.X[31] != 0 {
		t.Fatalf("x31 = %d, want 0", m.X[31])
	}
}

func TestLoadStoreWidths(t *testing.T) {
	m := run(t, func(a *Asm) {
		a.LI(5, 0x20000)
		a.LI(6, -2) // 0xfffffffffffffffe
		a.SD(6, 5, 0)
		a.LW(7, 5, 0) // sign-extended -2
		a.Emit(Inst{Op: LWU, Rd: 28, Rs1: 5, Imm: 0})
		a.Emit(Inst{Op: LB, Rd: 29, Rs1: 5, Imm: 0})
		a.Emit(Inst{Op: LBU, Rd: 30, Rs1: 5, Imm: 0})
		a.Emit(Inst{Op: LHU, Rd: 31, Rs1: 5, Imm: 0})
		exit(a, 0)
	}, make([]byte, 64))
	if int64(m.X[7]) != -2 {
		t.Errorf("lw = %d, want -2", int64(m.X[7]))
	}
	if m.X[28] != 0xfffffffe {
		t.Errorf("lwu = %#x", m.X[28])
	}
	if int64(m.X[29]) != -2 {
		t.Errorf("lb = %d", int64(m.X[29]))
	}
	if m.X[30] != 0xfe {
		t.Errorf("lbu = %#x", m.X[30])
	}
	if m.X[31] != 0xfffe {
		t.Errorf("lhu = %#x", m.X[31])
	}
}

func TestBranchLoop(t *testing.T) {
	// Sum 1..10 with a bne loop.
	m := run(t, func(a *Asm) {
		a.LI(5, 0)  // sum
		a.LI(6, 1)  // i
		a.LI(7, 11) // bound
		a.Label("loop")
		a.ADD(5, 5, 6)
		a.ADDI(6, 6, 1)
		a.BNE(6, 7, "loop")
		a.MV(10, 5)
		a.LI(17, isa.SysExit)
		a.ECALL()
	}, nil)
	if m.ExitCode() != 55 {
		t.Fatalf("sum = %d, want 55", m.ExitCode())
	}
}

func TestFloatingPoint(t *testing.T) {
	data := make([]byte, 64)
	m := run(t, func(a *Asm) {
		a.LI(5, 0x20000)
		a.LI(6, 9)
		a.FCVTDL(0, 6) // 9.0
		a.FSQRTD(1, 0) // 3.0
		a.LI(6, 4)
		a.FCVTDL(2, 6)       // 4.0
		a.FMULD(3, 1, 2)     // 12.0
		a.FADDD(4, 3, 1)     // 15.0
		a.FSUBD(5, 4, 2)     // 11.0
		a.FDIVD(6, 5, 1)     // 11/3
		a.FMADDD(7, 1, 2, 4) // 3*4+15 = 27
		a.FSD(7, 5, 0)
		a.FCVTLD(10, 7)
		a.LI(17, isa.SysExit)
		a.ECALL()
	}, data)
	if m.ExitCode() != 27 {
		t.Fatalf("fcvt.l.d result = %d, want 27", m.ExitCode())
	}
	bits, err := m.Mem.Read64(0x20000)
	if err != nil {
		t.Fatal(err)
	}
	if got := math.Float64frombits(bits); got != 27.0 {
		t.Fatalf("stored double = %v, want 27", got)
	}
	if got := math.Float64frombits(m.F[6]); math.Abs(got-11.0/3.0) > 1e-15 {
		t.Fatalf("fdiv = %v", got)
	}
}

func TestZeroRegisterInvariant(t *testing.T) {
	m := run(t, func(a *Asm) {
		a.LI(5, 99)
		a.ADD(0, 5, 5) // write to x0 discarded
		a.ADDI(0, 0, 123)
		a.MV(10, 0) // x0 reads zero
		a.LI(17, isa.SysExit)
		a.ECALL()
	}, nil)
	if m.ExitCode() != 0 {
		t.Fatalf("x0 leaked a value: exit=%d", m.ExitCode())
	}
	if m.X[0] != 0 {
		t.Fatalf("x0 = %d", m.X[0])
	}
}

func TestWriteSyscall(t *testing.T) {
	a := NewAsm()
	msg := []byte("hello, rv64\n")
	a.LI(10, 1) // fd
	a.LI(11, 0x20000)
	a.LI(12, int64(len(msg)))
	a.LI(17, isa.SysWrite)
	a.ECALL()
	exit(a, 0)
	f, err := a.Build(Program{TextBase: 0x10000, DataBase: 0x20000, Data: msg})
	if err != nil {
		t.Fatal(err)
	}
	m := mem.New(0x10000, 1<<20)
	mach, err := NewMachine(f, m)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	mach.Stdout = &out
	var ev isa.Event
	for {
		done, err := mach.Step(&ev)
		if err != nil {
			t.Fatal(err)
		}
		if done {
			break
		}
	}
	if out.String() != string(msg) {
		t.Fatalf("stdout = %q", out.String())
	}
}

func TestEventRecords(t *testing.T) {
	a := NewAsm()
	a.LI(5, 0x20000) // 1 inst (li small)... may expand; use events by op
	a.FLD(15, 5, 0)  // load event
	a.FSD(15, 5, 8)  // store event
	a.ADDI(5, 5, 8)  // int op
	a.BNE(5, 6, "end")
	a.Label("end")
	exit(a, 0)
	f, err := a.Build(Program{TextBase: 0x10000, DataBase: 0x20000, Data: make([]byte, 64)})
	if err != nil {
		t.Fatal(err)
	}
	m := mem.New(0x10000, 1<<20)
	mach, err := NewMachine(f, m)
	if err != nil {
		t.Fatal(err)
	}
	var events []isa.Event
	var ev isa.Event
	for {
		done, err := mach.Step(&ev)
		if err != nil {
			t.Fatal(err)
		}
		events = append(events, ev)
		if done {
			break
		}
	}
	// Find the fld event.
	var fld, fsd, bne *isa.Event
	for i := range events {
		switch events[i].Group {
		case isa.GroupLoad:
			fld = &events[i]
		case isa.GroupStore:
			fsd = &events[i]
		case isa.GroupBranch:
			bne = &events[i]
		}
	}
	if fld == nil || fld.LoadAddr != 0x20000 || fld.LoadSize != 8 {
		t.Fatalf("fld event wrong: %+v", fld)
	}
	if fld.NDsts != 1 || !fld.Dsts[0].IsFP() {
		t.Fatalf("fld dsts: %+v", fld)
	}
	if fsd == nil || fsd.StoreAddr != 0x20008 || fsd.StoreSize != 8 {
		t.Fatalf("fsd event wrong: %+v", fsd)
	}
	if fsd.NSrcs != 2 {
		t.Fatalf("fsd srcs: %+v", fsd)
	}
	// bne x5,x6 with x5=0x20008, x6=0 -> taken.
	if bne == nil || !bne.Branch || !bne.Taken {
		t.Fatalf("bne event wrong: %+v", bne)
	}
}

func TestLIQuickProperty(t *testing.T) {
	f := func(v int64) bool {
		a := NewAsm()
		a.LI(5, v)
		a.MV(10, 5)
		a.LI(17, isa.SysExit)
		a.ECALL()
		file, err := a.Build(Program{TextBase: 0x10000})
		if err != nil {
			return false
		}
		m := mem.New(0x10000, 1<<20)
		mach, err := NewMachine(file, m)
		if err != nil {
			return false
		}
		var ev isa.Event
		for i := 0; i < 1000; i++ {
			done, err := mach.Step(&ev)
			if err != nil {
				return false
			}
			if done {
				return mach.X[5] == uint64(v)
			}
		}
		return false
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestIntOpSemantics(t *testing.T) {
	cases := []struct {
		op   Op
		a, b uint64
		want uint64
	}{
		{ADD, 1, 2, 3},
		{SUB, 1, 2, ^uint64(0)},
		{SLL, 1, 63, 1 << 63},
		{SLT, ^uint64(0), 0, 1}, // -1 < 0 signed
		{SLTU, ^uint64(0), 0, 0},
		{SRA, 1 << 63, 63, ^uint64(0)},
		{SRL, 1 << 63, 63, 1},
		{ADDW, 0x7fffffff, 1, 0xffffffff80000000},
		{SUBW, 0, 1, ^uint64(0)},
		{MUL, 1 << 32, 1 << 32, 0},
		{MULHU, 1 << 32, 1 << 32, 1},
		{MULH, ^uint64(0), ^uint64(0), 0}, // -1 * -1 = 1, high = 0
		{DIV, 7, 0, ^uint64(0)},           // div by zero -> -1
		{REM, 7, 0, 7},
		{DIV, 1 << 63, ^uint64(0), 1 << 63}, // MinInt64 / -1 overflow
		{REM, 1 << 63, ^uint64(0), 0},
		{DIVU, 7, 0, ^uint64(0)},
		{REMU, 7, 0, 7},
		{DIVW, 7, 2, 3},
		{REMW, 7, 2, 1},
		{MULW, 0x100000000 + 3, 4, 12},
	}
	for _, c := range cases {
		if got := intOp(c.op, c.a, c.b); got != c.want {
			t.Errorf("%s(%#x, %#x) = %#x, want %#x", c.op.Name(), c.a, c.b, got, c.want)
		}
	}
}

func TestMulh128Property(t *testing.T) {
	// Verify mulhu64 against big-integer arithmetic via math/bits-free
	// 32-bit decomposition cross-check.
	f := func(a, b uint64) bool {
		hi := mulhu64(a, b)
		// Recompute differently: split into 32-bit limbs.
		a0, a1 := a&0xffffffff, a>>32
		b0, b1 := b&0xffffffff, b>>32
		lo := a0 * b0
		m1 := a1*b0 + lo>>32
		m2 := a0*b1 + m1&0xffffffff
		want := a1*b1 + m1>>32 + m2>>32
		return hi == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNaNBoxing(t *testing.T) {
	m := &Machine{}
	// Improperly boxed single reads as canonical NaN.
	m.F[1] = math.Float64bits(1.5) // not NaN-boxed
	if v := m.getS(1); !isNaN32(v) {
		t.Fatalf("unboxed single read as %v, want NaN", v)
	}
	m.F[2] = nanBox(math.Float32bits(2.5))
	if v := m.getS(2); v != 2.5 {
		t.Fatalf("boxed single = %v, want 2.5", v)
	}
}

func TestFPSaturation(t *testing.T) {
	m := &Machine{}
	m.F[1] = math.Float64bits(math.NaN())
	if got := m.fpToInt(Inst{Op: FCVTWD, Rs1: 1}); int32(got) != math.MaxInt32 {
		t.Errorf("fcvt.w.d(NaN) = %d", int32(got))
	}
	m.F[1] = math.Float64bits(1e300)
	if got := m.fpToInt(Inst{Op: FCVTLD, Rs1: 1}); int64(got) != math.MaxInt64 {
		t.Errorf("fcvt.l.d(1e300) = %d", int64(got))
	}
	m.F[1] = math.Float64bits(-1e300)
	if got := m.fpToInt(Inst{Op: FCVTLUD, Rs1: 1}); got != 0 {
		t.Errorf("fcvt.lu.d(-1e300) = %d", got)
	}
}

func TestAMO(t *testing.T) {
	m := run(t, func(a *Asm) {
		a.LI(5, 0x20000)
		a.LI(6, 5)
		a.SD(6, 5, 0)
		a.LI(7, 37)
		a.Emit(Inst{Op: AMOADDD, Rd: 28, Rs1: 5, Rs2: 7}) // mem=42, x28=5
		a.Emit(Inst{Op: LRD, Rd: 29, Rs1: 5})             // x29=42
		a.LI(7, 100)
		a.Emit(Inst{Op: SCD, Rd: 30, Rs1: 5, Rs2: 7}) // mem=100, x30=0
		a.Emit(Inst{Op: AMOMAXD, Rd: 31, Rs1: 5, Rs2: 6})
		exit(a, 0)
	}, make([]byte, 64))
	if m.X[28] != 5 || m.X[29] != 42 || m.X[30] != 0 || m.X[31] != 100 {
		t.Fatalf("amo results: x28=%d x29=%d x30=%d x31=%d", m.X[28], m.X[29], m.X[30], m.X[31])
	}
	v, _ := m.Mem.Read64(0x20000)
	if v != 100 {
		t.Fatalf("final mem = %d", v)
	}
}

func TestFetchOutsideText(t *testing.T) {
	a := NewAsm()
	a.Emit(Inst{Op: JALR, Rd: 0, Rs1: 0, Imm: 0}) // jump to 0
	f, err := a.Build(Program{TextBase: 0x10000})
	if err != nil {
		t.Fatal(err)
	}
	m := mem.New(0x10000, 1<<20)
	mach, err := NewMachine(f, m)
	if err != nil {
		t.Fatal(err)
	}
	var ev isa.Event
	if _, err := mach.Step(&ev); err != nil {
		t.Fatal(err)
	}
	if _, err := mach.Step(&ev); err == nil {
		t.Fatal("expected fetch error after jump to 0")
	}
}

func TestStepsCounter(t *testing.T) {
	m := run(t, func(a *Asm) {
		a.NOP()
		a.NOP()
		a.NOP()
		exit(a, 0)
	}, nil)
	// 3 nops + LI(a0,0)=1 + LI(a7,93)=1 + ecall = 6.
	if m.Steps() != 6 {
		t.Fatalf("steps = %d, want 6", m.Steps())
	}
}

func TestWordOpsEndToEnd(t *testing.T) {
	m := run(t, func(a *Asm) {
		a.LI(5, 0x7FFFFFFF)
		a.LI(6, 1)
		a.Emit(Inst{Op: ADDW, Rd: 7, Rs1: 5, Rs2: 6})   // wraps to MinInt32, sign-extended
		a.Emit(Inst{Op: SUBW, Rd: 28, Rs1: 6, Rs2: 5})  // 1 - MaxInt32
		a.Emit(Inst{Op: SLLW, Rd: 29, Rs1: 6, Rs2: 5})  // 1 << 31 -> negative
		a.Emit(Inst{Op: ADDIW, Rd: 30, Rs1: 5, Imm: 1}) // same wrap via immediate
		a.Emit(Inst{Op: SRAIW, Rd: 31, Rs1: 7, Imm: 31})
		exit(a, 0)
	}, nil)
	if int64(m.X[7]) != -2147483648 {
		t.Errorf("addw wrap: %d", int64(m.X[7]))
	}
	if int64(m.X[28]) != -2147483646 {
		t.Errorf("subw: %d", int64(m.X[28]))
	}
	if int64(m.X[29]) != -2147483648 {
		t.Errorf("sllw: %d", int64(m.X[29]))
	}
	if m.X[30] != m.X[7] {
		t.Errorf("addiw %d != addw %d", int64(m.X[30]), int64(m.X[7]))
	}
	if int64(m.X[31]) != -1 {
		t.Errorf("sraiw: %d", int64(m.X[31]))
	}
}

func TestMemoryFaultSurfaces(t *testing.T) {
	a := NewAsm()
	a.LI(5, 0xFF000000) // way outside the image
	a.LD(6, 5, 0)
	f, err := a.Build(Program{TextBase: 0x10000})
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMachine(f, mem.New(0x10000, 1<<20))
	if err != nil {
		t.Fatal(err)
	}
	var ev isa.Event
	for i := 0; i < 10; i++ {
		if _, err := m.Step(&ev); err != nil {
			return // fault reported, good
		}
	}
	t.Fatal("out-of-range load did not fault")
}

func TestUnsupportedSyscall(t *testing.T) {
	a := NewAsm()
	a.LI(17, 9999)
	a.ECALL()
	f, err := a.Build(Program{TextBase: 0x10000})
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMachine(f, mem.New(0x10000, 1<<20))
	if err != nil {
		t.Fatal(err)
	}
	var ev isa.Event
	for i := 0; i < 10; i++ {
		if _, err := m.Step(&ev); err != nil {
			return
		}
	}
	t.Fatal("unknown syscall did not error")
}
