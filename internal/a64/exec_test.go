package a64

import (
	"bytes"
	"math"
	"testing"

	"isacmp/internal/isa"
	"isacmp/internal/mem"
)

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

func exit(a *Asm, code int64) {
	a.MOV64(0, code)
	a.MOV64(8, isa.SysExit)
	a.SVC()
}

func TestArithmeticEndToEnd(t *testing.T) {
	m := run(t, func(a *Asm) {
		a.MOV64(1, 20)
		a.MOV64(2, 22)
		a.ADD(3, 1, 2) // 42
		a.MOV64(4, 7)
		a.MUL(5, 3, 4)  // 294
		a.SDIV(6, 5, 4) // 42
		a.SUB(7, 6, 3)  // 0
		a.MOV(0, 5)
		a.MOV64(8, isa.SysExit)
		a.SVC()
	}, nil)
	if m.ExitCode() != 294 {
		t.Fatalf("exit code = %d, want 294", m.ExitCode())
	}
	if m.X[7] != 0 {
		t.Fatalf("x7 = %d", m.X[7])
	}
}

func TestPaperCopyKernel(t *testing.T) {
	// The exact inner loop of the paper's Listing 1, copying 8 doubles.
	const n = 8
	data := make([]byte, 16*n)
	for i := 0; i < n; i++ {
		bits := math.Float64bits(float64(i) + 0.5)
		for b := 0; b < 8; b++ {
			data[i*8+b] = byte(bits >> (8 * b))
		}
	}
	m := run(t, func(a *Asm) {
		a.MOV64(22, 0x20000)     // src base
		a.MOV64(19, 0x20000+8*n) // dst base
		a.MOV64(0, 0)            // index
		a.MOV64(20, n)           // bound
		a.Label("loop")
		a.LDRDro(1, 22, 0, 3) // ldr d1, [x22, x0, lsl #3]
		a.STRDro(1, 19, 0, 3) // str d1, [x19, x0, lsl #3]
		a.ADDi(0, 0, 1)       // add x0, x0, #1
		a.CMP(0, 20)          // cmp x0, x20
		a.Bc(NE, "loop")      // b.ne loop
		exit(a, 0)
	}, data)
	for i := 0; i < n; i++ {
		bits, err := m.Mem.Read64(0x20000 + 8*uint64(n+i))
		if err != nil {
			t.Fatal(err)
		}
		if got := math.Float64frombits(bits); got != float64(i)+0.5 {
			t.Fatalf("dst[%d] = %v", i, got)
		}
	}
}

func TestFlagsAndConditions(t *testing.T) {
	m := run(t, func(a *Asm) {
		a.MOV64(1, 5)
		a.MOV64(2, 5)
		a.CMP(1, 2)   // equal -> Z
		a.CSET(3, EQ) // 1
		a.CSET(4, NE) // 0
		a.CSET(5, GE) // 1
		a.CSET(6, LT) // 0
		a.MOV64(7, 3)
		a.CMPi(7, 10) // 3-10 -> negative
		a.CSET(9, LT) // 1
		a.CSET(10, GT)
		a.CSET(11, CC) // borrow -> C clear -> cc holds
		exit(a, 0)
	}, nil)
	want := map[int]uint64{3: 1, 4: 0, 5: 1, 6: 0, 9: 1, 10: 0, 11: 1}
	for r, v := range want {
		if m.X[r] != v {
			t.Errorf("x%d = %d, want %d", r, m.X[r], v)
		}
	}
}

func TestGCC9LoopIdiom(t *testing.T) {
	// The paper's GCC 9.2 loop-exit sequence: sub x1, x0, #2441, lsl
	// #12; subs x1, x1, #1664 computes x0 - 10,000,000 and sets flags.
	m := run(t, func(a *Asm) {
		a.MOV64(0, 10_000_000)
		a.SUBiHi(1, 0, 2441) // x1 = x0 - 2441*4096 = x0 - 9,998,336
		a.SUBSi(1, 1, 1664)  // x1 = x1 - 1664 -> 0, Z set
		a.CSET(2, EQ)
		exit(a, 0)
	}, nil)
	if m.X[1] != 0 || m.X[2] != 1 {
		t.Fatalf("x1=%d x2=%d, want 0 1", m.X[1], m.X[2])
	}
}

func TestFloatingPoint(t *testing.T) {
	m := run(t, func(a *Asm) {
		a.MOV64(1, 9)
		a.SCVTF(0, 1) // d0 = 9.0
		a.FSQRT(1, 0) // d1 = 3.0
		a.MOV64(2, 4)
		a.SCVTF(2, 2)       // d2 = 4.0
		a.FMUL(3, 1, 2)     // 12
		a.FADD(4, 3, 1)     // 15
		a.FSUB(5, 4, 2)     // 11
		a.FMADD(6, 1, 2, 4) // 3*4+15 = 27
		a.FCVTZS(0, 6)
		a.MOV64(8, isa.SysExit)
		a.SVC()
	}, nil)
	if m.ExitCode() != 27 {
		t.Fatalf("exit = %d, want 27", m.ExitCode())
	}
}

func TestFCMPAndFCSEL(t *testing.T) {
	m := run(t, func(a *Asm) {
		a.MOV64(1, 2)
		a.SCVTF(1, 1) // d1 = 2
		a.MOV64(2, 3)
		a.SCVTF(2, 2) // d2 = 3
		a.FCMP(1, 2)  // 2 < 3 -> N
		a.CSET(3, MI)
		a.Emit(Inst{Op: FCSEL, Dbl: true, Rd: 4, Rn: 1, Rm: 2, Cond: MI}) // d4 = d1
		a.FCVTZS(5, 4)
		exit(a, 0)
	}, nil)
	if m.X[3] != 1 {
		t.Fatalf("fcmp less: cset mi = %d", m.X[3])
	}
	if m.X[5] != 2 {
		t.Fatalf("fcsel = %d, want 2", m.X[5])
	}
}

func TestZeroRegister(t *testing.T) {
	m := run(t, func(a *Asm) {
		a.MOV64(1, 99)
		a.Emit(Inst{Op: ADDr, Sf: true, Rd: ZR, Rn: 1, Rm: 1})  // discarded
		a.Emit(Inst{Op: ORRr, Sf: true, Rd: 2, Rn: ZR, Rm: ZR}) // x2 = 0
		a.MOV(0, 2)
		a.MOV64(8, isa.SysExit)
		a.SVC()
	}, nil)
	if m.ExitCode() != 0 {
		t.Fatalf("exit = %d", m.ExitCode())
	}
}

func TestAddressingModes(t *testing.T) {
	data := make([]byte, 128)
	for i := range data {
		data[i] = byte(i)
	}
	m := run(t, func(a *Asm) {
		a.MOV64(1, 0x20000)
		a.LDRx(2, 1, 8) // unsigned imm
		a.MOV64(3, 2)
		a.LDRro(4, 1, 3, 3)                                                  // [x1, x3, lsl #3] -> offset 16
		a.Emit(Inst{Op: LDR, Size: 8, Rd: 5, Rn: 1, Imm: 8, Mode: ModePost}) // addr 0x20000, x1 += 8
		a.Emit(Inst{Op: LDR, Size: 8, Rd: 6, Rn: 1, Imm: 8, Mode: ModePre})  // addr 0x20010, x1 = 0x20010
		exit(a, 0)
	}, data)
	word := func(off int) uint64 {
		var v uint64
		for b := 0; b < 8; b++ {
			v |= uint64(data[off+b]) << (8 * b)
		}
		return v
	}
	if m.X[2] != word(8) {
		t.Errorf("uimm load = %#x", m.X[2])
	}
	if m.X[4] != word(16) {
		t.Errorf("register-offset load = %#x", m.X[4])
	}
	if m.X[5] != word(0) {
		t.Errorf("post-index load = %#x", m.X[5])
	}
	if m.X[6] != word(16) {
		t.Errorf("pre-index load = %#x", m.X[6])
	}
	if m.X[1] != 0x20010 {
		t.Errorf("writeback base = %#x", m.X[1])
	}
}

func TestLoadStorePair(t *testing.T) {
	m := run(t, func(a *Asm) {
		a.MOV64(1, 0x20000)
		a.MOV64(2, 111)
		a.MOV64(3, 222)
		a.STPx(2, 3, 1, 16)
		a.LDPx(4, 5, 1, 16)
		exit(a, 0)
	}, make([]byte, 64))
	if m.X[4] != 111 || m.X[5] != 222 {
		t.Fatalf("ldp = %d, %d", m.X[4], m.X[5])
	}
}

func TestStackPush(t *testing.T) {
	m := run(t, func(a *Asm) {
		a.MOV64(29, 0xAAAA)
		a.MOV64(30, 0xBBBB)
		a.Emit(Inst{Op: STP, Size: 8, Rd: 29, Rt2: 30, Rn: 31, Imm: -16, Mode: ModePre})
		a.MOV64(29, 0)
		a.MOV64(30, 0)
		a.Emit(Inst{Op: LDP, Size: 8, Rd: 29, Rt2: 30, Rn: 31, Imm: 16, Mode: ModePost})
		exit(a, 0)
	}, nil)
	if m.X[29] != 0xAAAA || m.X[30] != 0xBBBB {
		t.Fatalf("stack round trip: x29=%#x x30=%#x", m.X[29], m.X[30])
	}
	if m.X[regSP] != m.Mem.StackTop() {
		t.Fatalf("sp not restored: %#x != %#x", m.X[regSP], m.Mem.StackTop())
	}
}

func TestWriteSyscall(t *testing.T) {
	a := NewAsm()
	msg := []byte("hello, a64\n")
	a.MOV64(0, 1)
	a.MOV64(1, 0x20000)
	a.MOV64(2, int64(len(msg)))
	a.MOV64(8, isa.SysWrite)
	a.SVC()
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

func TestEventNZCVFlow(t *testing.T) {
	a := NewAsm()
	a.MOV64(1, 1)
	a.CMP(1, 1)
	a.Bc(EQ, "done")
	a.Label("done")
	exit(a, 0)
	f, err := a.Build(Program{TextBase: 0x10000})
	if err != nil {
		t.Fatal(err)
	}
	m := mem.New(0x10000, 1<<20)
	mach, err := NewMachine(f, m)
	if err != nil {
		t.Fatal(err)
	}
	var cmpEv, brEv isa.Event
	var ev isa.Event
	for {
		done, err := mach.Step(&ev)
		if err != nil {
			t.Fatal(err)
		}
		if ev.Group == isa.GroupBranch && ev.NSrcs > 0 {
			brEv = ev
		}
		for k := uint8(0); k < ev.NDsts; k++ {
			if ev.Dsts[k] == isa.RegNZCV {
				cmpEv = ev
			}
		}
		if done {
			break
		}
	}
	if cmpEv.NDsts == 0 {
		t.Fatal("no instruction wrote NZCV")
	}
	found := false
	for k := uint8(0); k < brEv.NSrcs; k++ {
		if brEv.Srcs[k] == isa.RegNZCV {
			found = true
		}
	}
	if !found {
		t.Fatalf("b.eq did not read NZCV: %+v", brEv)
	}
	if !brEv.Taken {
		t.Fatal("b.eq after equal cmp not taken")
	}
}

func TestMOV64Variants(t *testing.T) {
	values := []int64{0, 1, -1, 42, 0x10000, -42, 0x123456789abcdef0 - 0x123456789abcdef0 + 77,
		1 << 40, -(1 << 33), 0x00ff00ff00ff00ff - 0x00ff00ff00ff00ff + 0x7fffffffffffffff}
	for _, v := range values {
		m := run(t, func(a *Asm) {
			a.MOV64(5, v)
			exit(a, 0)
		}, nil)
		if m.X[5] != uint64(v) {
			t.Errorf("MOV64(%#x) produced %#x", v, m.X[5])
		}
	}
}

func TestBitfieldAliases(t *testing.T) {
	m := run(t, func(a *Asm) {
		a.MOV64(1, 0xff00)
		a.LSLi(2, 1, 8) // 0xff0000
		a.LSRi(3, 1, 8) // 0xff
		a.MOV64(4, -256)
		a.ASRi(5, 4, 4) // -16
		exit(a, 0)
	}, nil)
	if m.X[2] != 0xff0000 {
		t.Errorf("lsl: %#x", m.X[2])
	}
	if m.X[3] != 0xff {
		t.Errorf("lsr: %#x", m.X[3])
	}
	if int64(m.X[5]) != -16 {
		t.Errorf("asr: %d", int64(m.X[5]))
	}
}

func TestDivideEdgeCases(t *testing.T) {
	if divide(true, 10, 0, true) != 0 {
		t.Error("sdiv by zero should be 0 on AArch64")
	}
	if divide(false, 10, 0, true) != 0 {
		t.Error("udiv by zero should be 0")
	}
	if divide(true, 1<<63, ^uint64(0), true) != 1<<63 {
		t.Error("sdiv overflow should wrap")
	}
}

func TestBfm(t *testing.T) {
	// lsr x, #3: immr=3, imms=63
	if got := bfm(0xff00, 3, 63, 64, false); got != 0x1fe0 {
		t.Errorf("lsr via ubfm = %#x", got)
	}
	// lsl #8: immr=56, imms=55
	if got := bfm(0xff, 56, 55, 64, false); got != 0xff00 {
		t.Errorf("lsl via ubfm = %#x", got)
	}
	// sxtw: sbfm immr=0 imms=31
	if got := bfm(0x80000000, 0, 31, 64, true); got != 0xffffffff80000000 {
		t.Errorf("sxtw = %#x", got)
	}
	// ubfx bits [15:8]
	if got := bfm(0xabcd, 8, 15, 64, false); got != 0xab {
		t.Errorf("ubfx = %#x", got)
	}
}
