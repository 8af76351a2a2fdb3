package simeng

import (
	"testing"

	"isacmp/internal/a64"
	"isacmp/internal/isa"
	"isacmp/internal/mem"
	"isacmp/internal/rv64"
)

func rvLoop(t *testing.T, n int64) Machine {
	t.Helper()
	a := rv64.NewAsm()
	a.LI(5, 0)
	a.LI(6, n)
	a.Label("loop")
	a.ADDI(5, 5, 1)
	a.BNE(5, 6, "loop")
	a.LI(10, 0)
	a.LI(17, 93)
	a.ECALL()
	f, err := a.Build(rv64.Program{TextBase: 0x10000})
	if err != nil {
		t.Fatal(err)
	}
	m, err := rv64.NewMachine(f, mem.New(0x10000, 1<<20))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func a64Loop(t *testing.T, n int64) Machine {
	t.Helper()
	a := a64.NewAsm()
	a.MOV64(1, 0)
	a.MOV64(2, n)
	a.Label("loop")
	a.ADDi(1, 1, 1)
	a.CMP(1, 2)
	a.Bc(a64.NE, "loop")
	a.MOV64(0, 0)
	a.MOV64(8, 93)
	a.SVC()
	f, err := a.Build(a64.Program{TextBase: 0x10000})
	if err != nil {
		t.Fatal(err)
	}
	m, err := a64.NewMachine(f, mem.New(0x10000, 1<<20))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestEmulationCoreCounts(t *testing.T) {
	const n = 100
	m := rvLoop(t, n)
	var events uint64
	stats, err := (&EmulationCore{}).Run(m, isa.SinkFunc(func(*isa.Event) { events++ }))
	if err != nil {
		t.Fatal(err)
	}
	// li(2) + n*(addi+bne) + li + li + ecall; the final ecall is not
	// streamed (it retires as exit).
	if stats.Instructions != events {
		t.Fatalf("stats %d != events %d", stats.Instructions, events)
	}
	want := uint64(2 + 2*n + 2)
	if stats.Instructions != want {
		t.Fatalf("instructions = %d, want %d", stats.Instructions, want)
	}
	if stats.Cycles != stats.Instructions {
		t.Fatalf("emulation core CPI must be 1")
	}
	if stats.CPI() != 1 {
		t.Fatalf("CPI = %v", stats.CPI())
	}
}

func TestEmulationCoreLimit(t *testing.T) {
	m := rvLoop(t, 1_000_000)
	c := &EmulationCore{MaxInstructions: 100}
	if _, err := c.Run(m, nil); err == nil {
		t.Fatal("expected instruction-limit error")
	}
}

func TestInOrderSerialVsParallel(t *testing.T) {
	// Serial: chain of dependent adds -> ~1 IPC even dual issue.
	serial := NewInOrderModel()
	for i := 0; i < 1000; i++ {
		ev := &isa.Event{Group: isa.GroupIntSimple}
		ev.AddSrc(isa.IntReg(1))
		ev.AddDst(isa.IntReg(1))
		serial.Event(ev)
	}
	s := serial.Stats()
	if s.CPI() < 0.99 {
		t.Fatalf("serial CPI = %v, want >= 1", s.CPI())
	}

	// Parallel: independent adds -> ~0.5 CPI (dual issue).
	par := NewInOrderModel()
	for i := 0; i < 1000; i++ {
		ev := &isa.Event{Group: isa.GroupIntSimple}
		ev.AddDst(isa.IntReg(uint8(i%28) + 1))
		par.Event(ev)
	}
	p := par.Stats()
	if p.CPI() > 0.6 {
		t.Fatalf("parallel CPI = %v, want ~0.5", p.CPI())
	}
	if p.Cycles >= s.Cycles {
		t.Fatalf("parallel (%d cycles) should beat serial (%d)", p.Cycles, s.Cycles)
	}
}

func TestInOrderLatencyExposed(t *testing.T) {
	// A chain of dependent FP adds must pay the FP latency each step.
	m := NewInOrderModel()
	const n = 100
	for i := 0; i < n; i++ {
		ev := &isa.Event{Group: isa.GroupFPAdd}
		ev.AddSrc(isa.FPReg(1))
		ev.AddDst(isa.FPReg(1))
		m.Event(ev)
	}
	lat := uint64(m.Latencies.Latency(isa.GroupFPAdd))
	if got := m.Stats().Cycles; got < (n-1)*lat {
		t.Fatalf("cycles = %d, want >= %d", got, (n-1)*lat)
	}
}

func TestInOrderBranchPenalty(t *testing.T) {
	// Not-taken branches pay the penalty under static predict-taken.
	m := NewInOrderModel()
	const n = 100
	for i := 0; i < n; i++ {
		ev := &isa.Event{Group: isa.GroupBranch, Branch: true, Taken: false}
		m.Event(ev)
	}
	if got := m.Stats().Cycles; got < (n-1)*m.BranchPenalty {
		t.Fatalf("cycles = %d, want >= %d", got, (n-1)*m.BranchPenalty)
	}
	// Taken branches predicted correctly: near-ideal throughput.
	m2 := NewInOrderModel()
	for i := 0; i < n; i++ {
		m2.Event(&isa.Event{Group: isa.GroupBranch, Branch: true, Taken: true})
	}
	if m2.Stats().Cycles > n {
		t.Fatalf("taken branches should not pay penalties: %d cycles", m2.Stats().Cycles)
	}
}

func TestOoOWidthBound(t *testing.T) {
	// Independent stream: throughput bounded by dispatch width.
	m := NewOoOModel()
	const n = 4000
	for i := 0; i < n; i++ {
		ev := &isa.Event{Group: isa.GroupIntSimple}
		ev.AddDst(isa.IntReg(uint8(i%28) + 1))
		m.Event(ev)
	}
	got := m.Stats()
	wantMin := uint64(n / m.Width)
	if got.Cycles < wantMin || got.Cycles > wantMin+10 {
		t.Fatalf("cycles = %d, want ~%d", got.Cycles, wantMin)
	}
}

func TestOoOSerialChainBound(t *testing.T) {
	m := NewOoOModel()
	const n = 1000
	for i := 0; i < n; i++ {
		ev := &isa.Event{Group: isa.GroupIntSimple}
		ev.AddSrc(isa.IntReg(1))
		ev.AddDst(isa.IntReg(1))
		m.Event(ev)
	}
	if got := m.Stats().Cycles; got < n {
		t.Fatalf("serial chain: %d cycles, want >= %d", got, n)
	}
}

func TestOoOROBLimit(t *testing.T) {
	// One long-latency instruction at the head blocks retirement; with
	// a tiny ROB the independent instructions behind it stall.
	small := &OoOModel{Width: 4, ROBSize: 4, Latencies: TX2Latencies()}
	big := &OoOModel{Width: 4, ROBSize: 512, Latencies: TX2Latencies()}
	feed := func(m *OoOModel) {
		for i := 0; i < 100; i++ {
			div := &isa.Event{Group: isa.GroupIntDiv}
			div.AddSrc(isa.IntReg(1))
			div.AddDst(isa.IntReg(1))
			m.Event(div)
			for j := 0; j < 10; j++ {
				add := &isa.Event{Group: isa.GroupIntSimple}
				add.AddDst(isa.IntReg(uint8(j%8) + 2))
				m.Event(add)
			}
		}
	}
	feed(small)
	feed(big)
	if small.Stats().Cycles <= big.Stats().Cycles {
		t.Fatalf("ROB 4 (%d cycles) should be slower than ROB 512 (%d)",
			small.Stats().Cycles, big.Stats().Cycles)
	}
}

func TestOoOMemoryForwarding(t *testing.T) {
	m := NewOoOModel()
	// store to A (done at t1), load from A must start >= t1.
	st := &isa.Event{Group: isa.GroupStore, StoreAddr: 0x100, StoreSize: 8}
	st.AddSrc(isa.IntReg(1))
	m.Event(st)
	ld := &isa.Event{Group: isa.GroupLoad, LoadAddr: 0x100, LoadSize: 8}
	ld.AddDst(isa.IntReg(2))
	m.Event(ld)
	// load completes at store-done + load latency.
	want := uint64(m.Latencies.Latency(isa.GroupStore)) + uint64(m.Latencies.Latency(isa.GroupLoad))
	if got := m.Stats().Cycles; got != want {
		t.Fatalf("cycles = %d, want %d", got, want)
	}
}

func TestLatencyTables(t *testing.T) {
	for _, l := range []*LatencyModel{TX2Latencies(), A55Latencies(), UnitLatencies()} {
		for g := isa.Group(0); g < isa.NumGroups; g++ {
			if l.Latency(g) == 0 {
				t.Fatalf("group %v has zero latency", g)
			}
		}
	}
	tx2 := TX2Latencies()
	if tx2.Latency(isa.GroupFPDiv) <= tx2.Latency(isa.GroupFPAdd) {
		t.Fatal("FP divide should cost more than FP add")
	}
	unit := UnitLatencies()
	for g := isa.Group(0); g < isa.NumGroups; g++ {
		if unit.Latency(g) != 1 {
			t.Fatal("unit latencies must be 1")
		}
	}
}

func TestBothMachinesThroughCore(t *testing.T) {
	for _, m := range []Machine{rvLoop(t, 10), a64Loop(t, 10)} {
		stats, err := (&EmulationCore{}).Run(m, nil)
		if err != nil {
			t.Fatalf("%v: %v", m.Arch(), err)
		}
		if stats.Instructions == 0 {
			t.Fatalf("%v: no instructions", m.Arch())
		}
	}
}

// recorder captures the timing models' tracer callbacks.
type recorder struct {
	n        int
	badOrder bool
	lastDone uint64
}

func (r *recorder) ObserveRetire(ev *isa.Event, dispatch, issue, complete uint64) {
	r.n++
	if dispatch > issue || issue > complete {
		r.badOrder = true
	}
	r.lastDone = complete
}

func TestTimingModelTracers(t *testing.T) {
	for _, tc := range []struct {
		model string
		run   func(rec *recorder, n int) PipelineStats
	}{
		{"inorder", func(rec *recorder, n int) PipelineStats {
			m := NewInOrderModel()
			m.Tracer = rec
			for i := 0; i < n; i++ {
				ev := &isa.Event{Group: isa.GroupLoad}
				ev.AddSrc(isa.IntReg(1))
				ev.AddDst(isa.IntReg(1))
				m.Event(ev)
			}
			return m.PipelineStats()
		}},
		{"ooo", func(rec *recorder, n int) PipelineStats {
			m := NewOoOModel()
			m.Tracer = rec
			for i := 0; i < n; i++ {
				ev := &isa.Event{Group: isa.GroupLoad}
				ev.AddSrc(isa.IntReg(1))
				ev.AddDst(isa.IntReg(1))
				m.Event(ev)
			}
			return m.PipelineStats()
		}},
	} {
		rec := &recorder{}
		const n = 200
		ps := tc.run(rec, n)
		if rec.n != n {
			t.Fatalf("%s: traced %d events, want %d", tc.model, rec.n, n)
		}
		if rec.badOrder {
			t.Fatalf("%s: dispatch/issue/complete out of order", tc.model)
		}
		if ps.Model != tc.model {
			t.Fatalf("model = %q, want %q", ps.Model, tc.model)
		}
		if ps.Instructions != n {
			t.Fatalf("%s: stats instructions = %d, want %d", tc.model, ps.Instructions, n)
		}
		// A serial load chain must expose source stalls in every model.
		if ps.SrcStallCycles == 0 {
			t.Fatalf("%s: no source-stall cycles on a serial load chain", tc.model)
		}
		if ps.CPI() <= 1 {
			t.Fatalf("%s: CPI %v <= 1 on a serial load chain", tc.model, ps.CPI())
		}
	}
}
