package core

import (
	"math"
	"math/rand"
	"testing"

	"isacmp/internal/elfio"
	"isacmp/internal/isa"
)

func TestWindowSerialChain(t *testing.T) {
	w := NewWindowedCritPath([]int{4})
	// Fully serial stream: every window of 4 has CP 4.
	for i := 0; i < 20; i++ {
		w.Event(evAdd(isa.IntReg(1), isa.IntReg(1)))
	}
	res := w.Results()[0]
	// Windows at pos 4,6,8,...,20 -> 9 windows.
	if res.Windows != 9 {
		t.Fatalf("windows = %d, want 9", res.Windows)
	}
	if res.MeanCP != 4 {
		t.Fatalf("mean CP = %v, want 4", res.MeanCP)
	}
	if res.MeanILP != 1 {
		t.Fatalf("mean ILP = %v, want 1", res.MeanILP)
	}
}

func TestWindowIndependentStream(t *testing.T) {
	w := NewWindowedCritPath([]int{4, 16})
	// Independent instructions: CP 1 in every window.
	for i := 0; i < 64; i++ {
		w.Event(evAdd(isa.IntReg(uint8(i%30) + 1)))
	}
	for _, res := range w.Results() {
		if res.MeanCP != 1 {
			t.Fatalf("size %d: mean CP = %v, want 1", res.Size, res.MeanCP)
		}
		if res.MeanILP != float64(res.Size) {
			t.Fatalf("size %d: mean ILP = %v, want %d", res.Size, res.MeanILP, res.Size)
		}
	}
}

func TestWindowChainBrokenAtBoundary(t *testing.T) {
	// A serial chain looks parallel when the window is small enough to
	// contain only part of it... it doesn't: within any window the
	// chain is still serial. What the window DOES break is a chain
	// whose dependencies span more than `size` instructions.
	w := NewWindowedCritPath([]int{4})
	// Pattern: x1 depends on its value 8 instructions ago; within a
	// 4-window every instruction is independent.
	for i := 0; i < 32; i++ {
		reg := isa.IntReg(uint8(i%8) + 1)
		w.Event(evAdd(reg, reg))
	}
	res := w.Results()[0]
	if res.MeanCP != 1 {
		t.Fatalf("mean CP = %v, want 1 (deps span beyond window)", res.MeanCP)
	}
}

func TestWindowCPBoundedBySize(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	w := NewWindowedCritPath([]int{4, 16, 64})
	for i := 0; i < 500; i++ {
		ev := &isa.Event{Group: isa.GroupIntSimple}
		for s := 0; s < r.Intn(3); s++ {
			ev.AddSrc(isa.IntReg(uint8(r.Intn(31) + 1)))
		}
		ev.AddDst(isa.IntReg(uint8(r.Intn(31) + 1)))
		w.Event(ev)
	}
	for _, res := range w.Results() {
		if res.MeanCP > float64(res.Size) {
			t.Fatalf("size %d: mean CP %v exceeds window", res.Size, res.MeanCP)
		}
		if res.MeanILP < 1 {
			t.Fatalf("size %d: mean ILP %v < 1", res.Size, res.MeanILP)
		}
	}
}

// The windowed CP of the full stream with a window >= stream length
// equals the plain CP.
func TestWindowDegeneratesToFullCP(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	const n = 128
	w := NewWindowedCritPath([]int{n})
	c := NewCritPath()
	for i := 0; i < n; i++ {
		ev := &isa.Event{Group: isa.GroupIntSimple}
		ev.AddSrc(isa.IntReg(uint8(r.Intn(8) + 1)))
		ev.AddDst(isa.IntReg(uint8(r.Intn(8) + 1)))
		w.Event(ev)
		c.Event(ev)
	}
	res := w.Results()[0]
	if res.Windows != 1 {
		t.Fatalf("windows = %d, want 1", res.Windows)
	}
	if uint64(res.MeanCP) != c.CP() {
		t.Fatalf("window CP %v != full CP %d", res.MeanCP, c.CP())
	}
}

func TestPaperWindowSizes(t *testing.T) {
	sizes := PaperWindowSizes()
	want := []int{4, 16, 64, 200, 500, 1000, 2000}
	if len(sizes) != len(want) {
		t.Fatalf("sizes = %v", sizes)
	}
	for i := range want {
		if sizes[i] != want[i] {
			t.Fatalf("sizes = %v, want %v", sizes, want)
		}
	}
}

func TestPathLengthAttribution(t *testing.T) {
	syms := []elfio.Symbol{
		{Name: "copy", Value: 0x1000, Size: 0x100},
		{Name: "scale", Value: 0x1100, Size: 0x100},
		{Name: "add", Value: 0x1200, Size: 0}, // extends to next
		{Name: "triad", Value: 0x1300, Size: 0x100},
	}
	p := NewPathLength(syms)
	hit := func(pc uint64, times int) {
		for i := 0; i < times; i++ {
			p.Event(&isa.Event{PC: pc})
		}
	}
	hit(0x1000, 3)
	hit(0x10FC, 2)
	hit(0x1150, 5)
	hit(0x1250, 7)
	hit(0x1310, 1)
	hit(0x2000, 4) // outside triad (size 0x100) -> other
	hit(0x0800, 1) // before all -> other

	if p.Count("copy") != 5 {
		t.Errorf("copy = %d, want 5", p.Count("copy"))
	}
	if p.Count("scale") != 5 {
		t.Errorf("scale = %d", p.Count("scale"))
	}
	if p.Count("add") != 7 {
		t.Errorf("add = %d", p.Count("add"))
	}
	if p.Count("triad") != 1 {
		t.Errorf("triad = %d", p.Count("triad"))
	}
	if p.Other() != 5 {
		t.Errorf("other = %d, want 5", p.Other())
	}
	if p.Total() != 23 {
		t.Errorf("total = %d, want 23", p.Total())
	}
	counts := p.Counts()
	if len(counts) != 4 || counts[0].Name != "copy" || counts[0].Count != 5 {
		t.Errorf("Counts() = %+v", counts)
	}
	if p.Count("nonexistent") != 0 {
		t.Error("unknown region should count 0")
	}
}

func TestPathLengthUnsortedSymbols(t *testing.T) {
	syms := []elfio.Symbol{
		{Name: "b", Value: 0x2000, Size: 0x10},
		{Name: "a", Value: 0x1000, Size: 0x10},
	}
	p := NewPathLength(syms)
	p.Event(&isa.Event{PC: 0x1008})
	p.Event(&isa.Event{PC: 0x2008})
	if p.Count("a") != 1 || p.Count("b") != 1 {
		t.Fatalf("a=%d b=%d", p.Count("a"), p.Count("b"))
	}
}

func TestWindowCustomStride(t *testing.T) {
	// Stride 1: a window completes at every position once full.
	w := NewWindowedCritPathStride([]int{4}, 1)
	for i := 0; i < 10; i++ {
		w.Event(evAdd(isa.IntReg(1), isa.IntReg(1)))
	}
	res := w.Results()[0]
	if res.Windows != 7 { // positions 4..10
		t.Fatalf("windows = %d, want 7", res.Windows)
	}
	// Stride equal to size: disjoint windows.
	w2 := NewWindowedCritPathStride([]int{4}, 4)
	for i := 0; i < 16; i++ {
		w2.Event(evAdd(isa.IntReg(1), isa.IntReg(1)))
	}
	if got := w2.Results()[0].Windows; got != 4 {
		t.Fatalf("disjoint windows = %d, want 4", got)
	}
	// Oversized stride clamps to the window size.
	w3 := NewWindowedCritPathStride([]int{4}, 100)
	for i := 0; i < 16; i++ {
		w3.Event(evAdd(isa.IntReg(1), isa.IntReg(1)))
	}
	if got := w3.Results()[0].Windows; got != 4 {
		t.Fatalf("clamped windows = %d, want 4", got)
	}
}

func TestWindowStrideMatchesDefault(t *testing.T) {
	// Explicit size/2 stride must equal the default constructor.
	a := NewWindowedCritPath([]int{8})
	b := NewWindowedCritPathStride([]int{8}, 4)
	for i := 0; i < 64; i++ {
		ev := evAdd(isa.IntReg(uint8(i%4)+1), isa.IntReg(uint8(i%4)+1))
		a.Event(ev)
		b.Event(ev)
	}
	ra, rb := a.Results()[0], b.Results()[0]
	if ra.Windows != rb.Windows || ra.MeanCP != rb.MeanCP {
		t.Fatalf("default %+v != explicit %+v", ra, rb)
	}
}

// TestLaneRingBudget pins the edges of the lane folds' memory budget:
// a ring of exactly laneBudget bytes folds by lanes, a larger one does
// not, and the check does not overflow for any positive size. The
// kernel's ring is padded to groups of 8 lanes, so it leaves sizes
// whose padded ring is over budget to laneFold, or to the per-window
// fold when laneFold's is too.
func TestLaneRingBudget(t *testing.T) {
	for _, c := range []struct {
		sizes          []int
		stride         int
		lanes, kernel  bool
		lanesN, groups uint64
	}{
		{[]int{1<<18 - 1}, 1<<18 - 1, true, false, 1, 0}, // one lane of 2^18 rows: 1 MiB
		{[]int{1 << 18}, 1 << 18, false, false, 0, 0},
		{[]int{1 << 17, 1 << 17}, 1 << 17, false, false, 0, 0},
		{[]int{math.MaxInt, 4}, 1, false, false, 0, 0},
		{[]int{1<<15 - 1}, 1<<15 - 1, true, true, 1, 1}, // one group of 2^15 rows: 1 MiB
		{[]int{1 << 15}, 1 << 15, true, false, 1, 0},
		{[]int{1024}, 8, true, true, 128, 16}, // 16 groups of 2^11 rows: 1 MiB
		{[]int{1 << 15, 1 << 14}, 1 << 14, true, false, 3, 0},
		{[]int{1024}, 7, false, false, 0, 0},       // 147 lanes
		{PaperWindowSizes(), 0, true, true, 14, 2}, // 128 KiB
		{PaperWindowSizes(), 1, false, false, 0, 0},
	} {
		f := newLaneFold(c.sizes, windowStrides(c.sizes, c.stride), maxWindow(c.sizes))
		if (f != nil) != c.lanes || f != nil && (4*len(f.ring) > laneBudget || f.n != c.lanesN) {
			t.Errorf("sizes %v stride %d: lanes %v, want %v", c.sizes, c.stride, f != nil, c.lanes)
		}
		k := newLaneKernel(c.sizes, windowStrides(c.sizes, c.stride), maxWindow(c.sizes))
		if (k != nil) != c.kernel || k != nil && (4*len(k.ring) > laneBudget || k.groups != c.groups || k.lanes != c.lanesN) {
			t.Errorf("sizes %v stride %d: kernel %v, want %v", c.sizes, c.stride, k != nil, c.kernel)
		}
		if !c.lanes {
			continue // the per-window fold's scratch would be as long as the largest size
		}
		w := newWindowFold(c.sizes, windowStrides(c.sizes, c.stride), maxWindow(c.sizes), true)
		if (w.kernel != nil) != c.kernel || (w.lanes != nil) != !c.kernel {
			t.Errorf("sizes %v stride %d: windowFold picks kernel %v and laneFold %v", c.sizes, c.stride, w.kernel != nil, w.lanes != nil)
		}
	}
}

// randEvents builds a deterministic stream mixing register arithmetic,
// loads and stores — the dependence shapes the windowed analysis sees
// from real binaries.
func randEvents(seed int64, n int) []*isa.Event {
	r := rand.New(rand.NewSource(seed))
	out := make([]*isa.Event, n)
	for i := range out {
		switch r.Intn(4) {
		case 0:
			out[i] = evLoad(isa.IntReg(uint8(r.Intn(30)+1)), isa.IntReg(uint8(r.Intn(30)+1)), uint64(r.Intn(64))*8)
		case 1:
			out[i] = evStore(isa.IntReg(uint8(r.Intn(30)+1)), isa.IntReg(uint8(r.Intn(30)+1)), uint64(r.Intn(64))*8)
		default:
			ev := &isa.Event{Group: isa.GroupIntSimple}
			for s := 0; s < r.Intn(3); s++ {
				ev.AddSrc(isa.IntReg(uint8(r.Intn(30) + 1)))
			}
			ev.AddDst(isa.IntReg(uint8(r.Intn(30) + 1)))
			out[i] = ev
		}
	}
	return out
}

func wantEqualResults(t *testing.T, want, got []WindowResult) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("result lengths differ: %d vs %d", len(want), len(got))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("size %d: want %+v, got %+v", want[i].Size, want[i], got[i])
		}
	}
}

// TestWindowLargerThanTrace: a window size exceeding the stream length
// yields exactly one partial window covering the whole stream, whose
// mean length (not the nominal size) enters the ILP average.
func TestWindowLargerThanTrace(t *testing.T) {
	const n = 10
	w := NewWindowedCritPath([]int{64})
	for i := 0; i < n; i++ {
		w.Event(evAdd(isa.IntReg(1), isa.IntReg(1))) // fully serial
	}
	res := w.Results()[0]
	if res.Windows != 1 {
		t.Fatalf("windows = %d, want 1", res.Windows)
	}
	if res.MeanCP != n {
		t.Fatalf("mean CP = %v, want %d (serial chain over the whole stream)", res.MeanCP, n)
	}
	if res.MeanILP != 1 {
		t.Fatalf("mean ILP = %v, want 1 (partial window averaged by true length)", res.MeanILP)
	}
}

// TestWindowSizeOne: every instruction is its own window; CP and ILP
// are exactly 1.
func TestWindowSizeOne(t *testing.T) {
	w := NewWindowedCritPath([]int{1})
	const n = 37
	for i := 0; i < n; i++ {
		w.Event(evAdd(isa.IntReg(1), isa.IntReg(1)))
	}
	res := w.Results()[0]
	if res.Windows != n {
		t.Fatalf("windows = %d, want %d", res.Windows, n)
	}
	if res.MeanCP != 1 || res.MeanILP != 1 {
		t.Fatalf("CP/ILP = %v/%v, want 1/1", res.MeanCP, res.MeanILP)
	}
}

// TestWindowEmptyTrace: no events means no windows and zero means —
// not NaN, not a panic.
func TestWindowEmptyTrace(t *testing.T) {
	w := NewWindowedCritPath(PaperWindowSizes())
	for _, res := range w.Results() {
		if res.Windows != 0 || res.MeanCP != 0 || res.MeanILP != 0 {
			t.Fatalf("size %d: %+v, want all zero", res.Size, res)
		}
	}
}

// TestWindowNoSizes: an empty size list must not panic on events.
func TestWindowNoSizes(t *testing.T) {
	w := NewWindowedCritPath(nil)
	w.Event(evAdd(isa.IntReg(1)))
	if got := w.Results(); len(got) != 0 {
		t.Fatalf("results = %+v, want empty", got)
	}
}

// TestWindowTailPartial pins the tail-window arithmetic: 10 events,
// size 4, stride 2 → complete windows end at 4, 6, 8, 10 and cover
// every instruction, so no tail; 11 events leave instruction 10 and a
// tail window [7, 11) appears.
func TestWindowTailPartial(t *testing.T) {
	w := NewWindowedCritPath([]int{4})
	for i := 0; i < 10; i++ {
		w.Event(evAdd(isa.IntReg(1), isa.IntReg(1)))
	}
	if got := w.Results()[0].Windows; got != 4 {
		t.Fatalf("10 events: windows = %d, want 4 (no tail)", got)
	}
	w.Event(evAdd(isa.IntReg(1), isa.IntReg(1)))
	res := w.Results()[0]
	if res.Windows != 5 {
		t.Fatalf("11 events: windows = %d, want 5 (tail [7,11))", res.Windows)
	}
	// All serial: each of the 5 windows (all full-size, the tail is
	// snapped to the end) has CP 4.
	if res.MeanCP != 4 || res.MeanILP != 1 {
		t.Fatalf("11 events: CP/ILP = %v/%v, want 4/1", res.MeanCP, res.MeanILP)
	}
}

// TestSequentialResultsStreamable: Results may be called mid-stream
// without disturbing later windows.
func TestSequentialResultsStreamable(t *testing.T) {
	events := randEvents(21, 300)
	w := NewWindowedCritPath([]int{16})
	for i, ev := range events {
		w.Event(ev)
		if i == 150 {
			w.Results() // must not perturb the accumulators
		}
	}
	ref := NewWindowedCritPath([]int{16})
	for _, ev := range events {
		ref.Event(ev)
	}
	wantEqualResults(t, ref.Results(), w.Results())
}
