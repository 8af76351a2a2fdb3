package fusion

import (
	"reflect"
	"testing"

	"isacmp/internal/isa"
)

// capture records value copies of every delivered event plus the batch
// boundaries, so tests can check both the rewritten stream and how it
// was chopped.
type capture struct {
	evs     []isa.Event
	batches []int
	singles int
}

func (c *capture) Event(ev *isa.Event) {
	c.evs = append(c.evs, *ev)
	c.singles++
}

func (c *capture) Events(evs []isa.Event) {
	c.evs = append(c.evs, evs...)
	c.batches = append(c.batches, len(evs))
}

// RV64 word constructors for the word-pattern rules.

func wADD(rd, rs1, rs2 uint32) uint32  { return 0x33 | rd<<7 | rs1<<15 | rs2<<20 }
func wSLLI(rd, rs1, sh uint32) uint32  { return 0x13 | rd<<7 | 1<<12 | rs1<<15 | sh<<20 }
func wLUI(rd uint32) uint32            { return 0x37 | rd<<7 | 0x12345<<12 }
func wADDI(rd, rs1, imm uint32) uint32 { return 0x13 | rd<<7 | rs1<<15 | imm<<20 }
func wLD(rd, rs1, imm uint32) uint32   { return 0x03 | rd<<7 | 3<<12 | rs1<<15 | imm<<20 }
func wSD(rs2, rs1, imm uint32) uint32 {
	return 0x23 | (imm&0x1f)<<7 | 3<<12 | rs1<<15 | rs2<<20 | (imm>>5)<<25
}

// Event constructors.

func evLoad(pc uint64, dst, base isa.Reg, addr uint64, size uint8) isa.Event {
	e := isa.Event{PC: pc, Group: isa.GroupLoad, LoadAddr: addr, LoadSize: size}
	e.AddDst(dst)
	e.AddSrc(base)
	return e
}

func evStore(pc uint64, val, base isa.Reg, addr uint64, size uint8) isa.Event {
	e := isa.Event{PC: pc, Group: isa.GroupStore, StoreAddr: addr, StoreSize: size}
	e.AddSrc(val)
	e.AddSrc(base)
	return e
}

func evALU(pc uint64, word uint32, dst isa.Reg, srcs ...isa.Reg) isa.Event {
	e := isa.Event{PC: pc, Word: word, Group: isa.GroupIntSimple}
	e.AddDst(dst)
	for _, s := range srcs {
		e.AddSrc(s)
	}
	return e
}

func evBranch(pc uint64, taken bool, srcs ...isa.Reg) isa.Event {
	e := isa.Event{PC: pc, Group: isa.GroupBranch, Branch: true, Taken: taken}
	for _, s := range srcs {
		e.AddSrc(s)
	}
	return e
}

// run pushes evs through a fresh pass as one batch and flushes.
func run(t *testing.T, cfg Config, arch isa.Arch, evs []isa.Event) ([]isa.Event, Stats) {
	t.Helper()
	var c capture
	p := NewPass(cfg, arch, &c)
	p.Events(evs)
	p.Flush()
	return c.evs, p.Stats()
}

var allRV = Config{RV64: true, A64: true, Rules: AllRules}

func TestLoadPairFuses(t *testing.T) {
	in := []isa.Event{
		evLoad(0x100, isa.IntReg(5), isa.IntReg(10), 0x8000, 8),
		evLoad(0x104, isa.IntReg(6), isa.IntReg(10), 0x9000, 8), // independent, discontiguous
	}
	out, st := run(t, allRV, isa.RV64, in)
	if len(out) != 1 {
		t.Fatalf("got %d events, want 1 fused", len(out))
	}
	f := out[0]
	if f.Fused != 2 || f.PC != 0x100 || f.Group != isa.GroupLoad {
		t.Fatalf("bad fused event: %+v", f)
	}
	if f.LoadAddr != 0x8000 || f.LoadSize != 8 || f.Load2Addr != 0x9000 || f.Load2Size != 8 {
		t.Fatalf("memory spans not preserved: %+v", f)
	}
	if f.NDsts != 2 || f.Dsts[0] != isa.IntReg(5) || f.Dsts[1] != isa.IntReg(6) {
		t.Fatalf("dsts not merged: %+v", f)
	}
	// Shared base register deduplicates.
	if f.NSrcs != 1 || f.Srcs[0] != isa.IntReg(10) {
		t.Fatalf("srcs not deduped: %+v", f)
	}
	if st.Hits[RuleLoadPair] != 1 || st.EventsIn != 2 || st.EventsOut != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestLoadPairRefusals(t *testing.T) {
	base := func() []isa.Event {
		return []isa.Event{
			evLoad(0x100, isa.IntReg(5), isa.IntReg(10), 0x8000, 8),
			evLoad(0x104, isa.IntReg(6), isa.IntReg(10), 0x9000, 8),
		}
	}
	cases := []struct {
		name string
		mut  func(in []isa.Event)
	}{
		{"pc gap", func(in []isa.Event) { in[1].PC = 0x110 }},
		{"dependent", func(in []isa.Event) { in[1].Srcs[0] = isa.IntReg(5) }},
		{"size mismatch", func(in []isa.Event) { in[1].LoadSize = 4 }},
		{"second already paired", func(in []isa.Event) {
			in[1].Load2Addr, in[1].Load2Size = 0xa000, 8
		}},
		{"first has store", func(in []isa.Event) {
			in[0].StoreAddr, in[0].StoreSize = 0xb000, 8
		}},
		{"already fused", func(in []isa.Event) { in[0].Fused = 2 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			in := base()
			tc.mut(in)
			out, st := run(t, allRV, isa.RV64, in)
			if len(out) != 2 || st.Pairs() != 0 {
				t.Fatalf("fused when it must not: %d events, stats %+v", len(out), st)
			}
		})
	}
}

func TestLoadPairDstOverflow(t *testing.T) {
	// Two loads with distinct dsts fit (2 slots), but a second load
	// whose srcs don't dedup past 4 must refuse. Build src overflow:
	// a reads 3 regs (synthetic), b reads 2 distinct others.
	a := evLoad(0x100, isa.IntReg(5), isa.IntReg(10), 0x8000, 8)
	a.AddSrc(isa.IntReg(11))
	a.AddSrc(isa.IntReg(12))
	b := evLoad(0x104, isa.IntReg(6), isa.IntReg(13), 0x9000, 8)
	b.AddSrc(isa.IntReg(14))
	out, st := run(t, allRV, isa.RV64, []isa.Event{a, b})
	if len(out) != 2 || st.Pairs() != 0 {
		t.Fatalf("src overflow must refuse: %d events", len(out))
	}
}

func TestStorePairFuses(t *testing.T) {
	in := []isa.Event{
		evStore(0x200, isa.FPReg(1), isa.IntReg(10), 0x8000, 8),
		evStore(0x204, isa.FPReg(2), isa.IntReg(10), 0x8008, 8), // contiguous
	}
	out, st := run(t, allRV, isa.RV64, in)
	if len(out) != 1 {
		t.Fatalf("got %d events, want 1", len(out))
	}
	f := out[0]
	if f.Group != isa.GroupStore || f.StoreAddr != 0x8000 || f.StoreSize != 16 {
		t.Fatalf("merged span wrong: %+v", f)
	}
	if f.NSrcs != 3 { // two values + shared base
		t.Fatalf("srcs: %+v", f)
	}
	if st.Hits[RuleStorePair] != 1 {
		t.Fatalf("stats: %+v", st)
	}

	// Descending order merges too.
	in = []isa.Event{
		evStore(0x200, isa.FPReg(1), isa.IntReg(10), 0x8008, 8),
		evStore(0x204, isa.FPReg(2), isa.IntReg(10), 0x8000, 8),
	}
	out, _ = run(t, allRV, isa.RV64, in)
	if len(out) != 1 || out[0].StoreAddr != 0x8000 || out[0].StoreSize != 16 {
		t.Fatalf("descending pair: %+v", out)
	}
}

func TestStorePairRefusesGap(t *testing.T) {
	in := []isa.Event{
		evStore(0x200, isa.FPReg(1), isa.IntReg(10), 0x8000, 8),
		evStore(0x204, isa.FPReg(2), isa.IntReg(10), 0x8010, 8), // hole at 0x8008
	}
	out, st := run(t, allRV, isa.RV64, in)
	if len(out) != 2 || st.Pairs() != 0 {
		t.Fatalf("non-adjacent stores fused: %+v", out)
	}
}

func TestAddLdFuses(t *testing.T) {
	add := evALU(0x300, wADD(6, 10, 11), isa.IntReg(6), isa.IntReg(10), isa.IntReg(11))
	ld := evLoad(0x304, isa.IntReg(7), isa.IntReg(6), 0xc000, 8)
	ld.Word = wLD(7, 6, 0)
	out, st := run(t, allRV, isa.RV64, []isa.Event{add, ld})
	if len(out) != 1 || st.Hits[RuleAddLd] != 1 {
		t.Fatalf("addld did not fire: %d events, %+v", len(out), st)
	}
	f := out[0]
	if f.Group != isa.GroupLoad || f.LoadAddr != 0xc000 || f.LoadSize != 8 {
		t.Fatalf("fused addld: %+v", f)
	}
	// Sources: the add's operands; the load's base x6 is internal.
	if f.NSrcs != 2 || f.NDsts != 2 {
		t.Fatalf("deps: %+v", f)
	}

	// Nonzero load offset refuses.
	ld.Word = wLD(7, 6, 8)
	out, st = run(t, allRV, isa.RV64, []isa.Event{add, ld})
	if len(out) != 2 || st.Pairs() != 0 {
		t.Fatalf("nonzero offset fused")
	}
	// Base mismatch refuses.
	ld.Word = wLD(7, 12, 0)
	out, _ = run(t, allRV, isa.RV64, []isa.Event{add, ld})
	if len(out) != 2 {
		t.Fatalf("base mismatch fused")
	}
}

func TestAddStFuses(t *testing.T) {
	add := evALU(0x300, wADD(6, 10, 11), isa.IntReg(6), isa.IntReg(10), isa.IntReg(11))
	st0 := evStore(0x304, isa.IntReg(12), isa.IntReg(6), 0xd000, 8)
	st0.Word = wSD(12, 6, 0)
	out, stats := run(t, allRV, isa.RV64, []isa.Event{add, st0})
	if len(out) != 1 || stats.Hits[RuleAddSt] != 1 {
		t.Fatalf("addst did not fire: %d events, %+v", len(out), stats)
	}
	if out[0].Group != isa.GroupStore || out[0].StoreAddr != 0xd000 {
		t.Fatalf("fused addst: %+v", out[0])
	}

	st0.Word = wSD(12, 6, 16) // nonzero offset
	out, _ = run(t, allRV, isa.RV64, []isa.Event{add, st0})
	if len(out) != 2 {
		t.Fatalf("nonzero store offset fused")
	}
}

func TestSlliAddFuses(t *testing.T) {
	slli := evALU(0x400, wSLLI(31, 28, 3), isa.IntReg(31), isa.IntReg(28))
	add := evALU(0x404, wADD(31, 31, 6), isa.IntReg(31), isa.IntReg(31), isa.IntReg(6))
	out, st := run(t, allRV, isa.RV64, []isa.Event{slli, add})
	if len(out) != 1 || st.Hits[RuleSlliAdd] != 1 {
		t.Fatalf("slliadd did not fire: %d events, %+v", len(out), st)
	}
	f := out[0]
	if f.Group != isa.GroupIntSimple || f.NDsts != 1 || f.Dsts[0] != isa.IntReg(31) {
		t.Fatalf("fused slliadd: %+v", f)
	}
	// Sources: slli's x28, add's x6; x31 (written by slli) is internal.
	if f.NSrcs != 2 {
		t.Fatalf("srcs: %+v", f)
	}

	// shamt 4 (not an address scale) refuses.
	slli.Word = wSLLI(31, 28, 4)
	out, _ = run(t, allRV, isa.RV64, []isa.Event{slli, add})
	if len(out) != 2 {
		t.Fatalf("shamt 4 fused")
	}
	// Non-destructive add (different rd) refuses.
	slli.Word = wSLLI(31, 28, 3)
	add2 := evALU(0x404, wADD(7, 31, 6), isa.IntReg(7), isa.IntReg(31), isa.IntReg(6))
	out, _ = run(t, allRV, isa.RV64, []isa.Event{slli, add2})
	if len(out) != 2 {
		t.Fatalf("non-destructive add fused")
	}
}

func TestLuiAddiFuses(t *testing.T) {
	lui := evALU(0x500, wLUI(6), isa.IntReg(6))
	addi := evALU(0x504, wADDI(6, 6, 512), isa.IntReg(6), isa.IntReg(6))
	out, st := run(t, allRV, isa.RV64, []isa.Event{lui, addi})
	if len(out) != 1 || st.Hits[RuleLuiAddi] != 1 {
		t.Fatalf("luiaddi did not fire: %d events, %+v", len(out), st)
	}
	f := out[0]
	if f.NDsts != 1 || f.Dsts[0] != isa.IntReg(6) || f.NSrcs != 0 {
		t.Fatalf("fused luiaddi: %+v", f)
	}

	// addi reading a different base refuses.
	addi2 := evALU(0x504, wADDI(6, 7, 512), isa.IntReg(6), isa.IntReg(7))
	out, _ = run(t, allRV, isa.RV64, []isa.Event{lui, addi2})
	if len(out) != 2 {
		t.Fatalf("wrong-base addi fused")
	}
}

func TestCmpBranchFusesOnA64Only(t *testing.T) {
	cmp := isa.Event{PC: 0x600, Group: isa.GroupIntSimple}
	cmp.AddSrc(isa.IntReg(3))
	cmp.AddDst(isa.RegNZCV)
	br := evBranch(0x604, true, isa.RegNZCV)

	out, st := run(t, allRV, isa.AArch64, []isa.Event{cmp, br})
	if len(out) != 1 || st.Hits[RuleCmpBranch] != 1 {
		t.Fatalf("cmpbranch did not fire on a64: %d events, %+v", len(out), st)
	}
	f := out[0]
	if f.Group != isa.GroupBranch || !f.Branch || !f.Taken {
		t.Fatalf("fused cmpbranch: %+v", f)
	}
	if f.NDsts != 1 || f.Dsts[0] != isa.RegNZCV {
		t.Fatalf("nzcv dst dropped: %+v", f)
	}

	// The same stream on an RV64 machine must not fuse (rule gated).
	out, st = run(t, allRV, isa.RV64, []isa.Event{cmp, br})
	if len(out) != 2 || st.Pairs() != 0 {
		t.Fatalf("cmpbranch fired on rv64")
	}
}

func TestNoFusionAcrossBlockBoundary(t *testing.T) {
	// A taken branch followed by its fall-through-looking PC: the first
	// event being a branch blocks fusion.
	br := evBranch(0x700, true, isa.IntReg(3))
	ld := evLoad(0x704, isa.IntReg(5), isa.IntReg(10), 0x8000, 8)
	out, st := run(t, allRV, isa.RV64, []isa.Event{br, ld})
	if len(out) != 2 || st.Pairs() != 0 {
		t.Fatalf("fused across branch")
	}
}

func TestGreedyPairingNoOverlap(t *testing.T) {
	// Three adjacent same-size independent loads: greedy pairing fuses
	// (1,2) and leaves 3 alone — never (2,3) too.
	in := []isa.Event{
		evLoad(0x100, isa.IntReg(5), isa.IntReg(10), 0x8000, 8),
		evLoad(0x104, isa.IntReg(6), isa.IntReg(10), 0x8008, 8),
		evLoad(0x108, isa.IntReg(7), isa.IntReg(10), 0x8010, 8),
	}
	out, st := run(t, allRV, isa.RV64, in)
	if len(out) != 2 || st.Pairs() != 1 {
		t.Fatalf("greedy pairing: %d events, %+v", len(out), st)
	}
	if out[0].Fused != 2 || out[1].Fused != 0 || out[1].PC != 0x108 {
		t.Fatalf("wrong pair chosen: %+v", out)
	}
}

func TestRuleMaskRestricts(t *testing.T) {
	cfg := Config{RV64: true, Rules: 1 << RuleSlliAdd}
	in := []isa.Event{
		evLoad(0x100, isa.IntReg(5), isa.IntReg(10), 0x8000, 8),
		evLoad(0x104, isa.IntReg(6), isa.IntReg(10), 0x9000, 8),
	}
	out, st := run(t, cfg, isa.RV64, in)
	if len(out) != 2 || st.Pairs() != 0 {
		t.Fatalf("disabled loadpair fired")
	}
}

// TestBatchSplitEquivalence delivers the same stream (a) as one batch,
// (b) split at every possible seam, (c) per-event through Event — the
// output and stats must be identical regardless. This pins the
// cross-batch carry: a fusible pair straddling a StepN buffer boundary
// fuses exactly as it would unbatched.
func TestBatchSplitEquivalence(t *testing.T) {
	in := []isa.Event{
		evLoad(0x100, isa.IntReg(5), isa.IntReg(10), 0x8000, 8),
		evLoad(0x104, isa.IntReg(6), isa.IntReg(10), 0x9000, 8),
		evALU(0x108, wSLLI(31, 28, 3), isa.IntReg(31), isa.IntReg(28)),
		evALU(0x10c, wADD(31, 31, 6), isa.IntReg(31), isa.IntReg(31), isa.IntReg(6)),
		evBranch(0x110, true, isa.IntReg(3)),
		evStore(0x200, isa.FPReg(1), isa.IntReg(10), 0x8000, 8),
		evStore(0x204, isa.FPReg(2), isa.IntReg(10), 0x8008, 8),
		evLoad(0x208, isa.IntReg(7), isa.IntReg(10), 0xa000, 4),
	}

	var ref capture
	p := NewPass(allRV, isa.RV64, &ref)
	p.Events(in)
	p.Flush()
	refStats := p.Stats()
	if refStats.Pairs() != 3 {
		t.Fatalf("reference stream should fuse 3 pairs, got %+v", refStats)
	}

	for cut := 0; cut <= len(in); cut++ {
		var c capture
		q := NewPass(allRV, isa.RV64, &c)
		q.Events(in[:cut])
		q.Events(in[cut:])
		q.Flush()
		if !reflect.DeepEqual(c.evs, ref.evs) {
			t.Fatalf("split at %d diverges:\n got %+v\nwant %+v", cut, c.evs, ref.evs)
		}
		if q.Stats() != refStats {
			t.Fatalf("split at %d stats diverge: %+v vs %+v", cut, q.Stats(), refStats)
		}
	}

	// Per-event path.
	var c capture
	q := NewPass(allRV, isa.RV64, &c)
	for i := range in {
		ev := in[i]
		q.Event(&ev)
	}
	q.Flush()
	if !reflect.DeepEqual(c.evs, ref.evs) {
		t.Fatalf("per-event path diverges:\n got %+v\nwant %+v", c.evs, ref.evs)
	}
	if q.Stats() != refStats {
		t.Fatalf("per-event stats diverge: %+v vs %+v", q.Stats(), refStats)
	}
}

// TestFlushEmitsCarry pins that a trailing unpaired event is only
// delivered at Flush, and that Flush is idempotent.
func TestFlushEmitsCarry(t *testing.T) {
	var c capture
	p := NewPass(allRV, isa.RV64, &c)
	ev := evLoad(0x100, isa.IntReg(5), isa.IntReg(10), 0x8000, 8)
	p.Events([]isa.Event{ev})
	if len(c.evs) != 0 {
		t.Fatalf("trailing event delivered before Flush")
	}
	p.Flush()
	if len(c.evs) != 1 || !reflect.DeepEqual(c.evs[0], ev) {
		t.Fatalf("flush: %+v", c.evs)
	}
	p.Flush()
	if len(c.evs) != 1 {
		t.Fatalf("Flush not idempotent")
	}
	st := p.Stats()
	if st.EventsIn != 1 || st.EventsOut != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestParseSpec(t *testing.T) {
	cases := []struct {
		in   string
		want Config
		err  bool
	}{
		{in: "off", want: Config{}},
		{in: "", want: Config{}},
		{in: "rv64", want: Config{RV64: true, Rules: AllRules}},
		{in: "a64", want: Config{A64: true, Rules: AllRules}},
		{in: "both", want: Config{RV64: true, A64: true, Rules: AllRules}},
		{in: "rv64:loadpair,slliadd",
			want: Config{RV64: true, Rules: 1<<RuleLoadPair | 1<<RuleSlliAdd}},
		{in: "both:cmpbranch", want: Config{RV64: true, A64: true, Rules: 1 << RuleCmpBranch}},
		{in: "off:loadpair", err: true},
		{in: "riscv", err: true},
		{in: "rv64:frobnicate", err: true},
		{in: "rv64:", err: true},
	}
	for _, tc := range cases {
		got, err := ParseSpec(tc.in)
		if tc.err {
			if err == nil {
				t.Errorf("ParseSpec(%q): want error, got %+v", tc.in, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseSpec(%q): %v", tc.in, err)
			continue
		}
		if got != tc.want {
			t.Errorf("ParseSpec(%q) = %+v, want %+v", tc.in, got, tc.want)
		}
		// Round trip through Spec.
		back, err := ParseSpec(got.Spec())
		if err != nil || back != got {
			t.Errorf("Spec round trip for %q: %q -> %+v, %v", tc.in, got.Spec(), back, err)
		}
	}
	if (Config{}).Spec() != "off" {
		t.Errorf("zero config Spec = %q", Config{}.Spec())
	}
}

func TestRulesForArchGating(t *testing.T) {
	cfg := Config{RV64: true, A64: true, Rules: AllRules}
	rv := cfg.RulesFor(isa.RV64)
	if !rv.Has(RuleLoadPair) || !rv.Has(RuleSlliAdd) || rv.Has(RuleCmpBranch) {
		t.Fatalf("rv64 rule set: %b", rv)
	}
	a64 := cfg.RulesFor(isa.AArch64)
	if !a64.Has(RuleLoadPair) || !a64.Has(RuleCmpBranch) || a64.Has(RuleSlliAdd) {
		t.Fatalf("a64 rule set: %b", a64)
	}
	off := Config{}
	if off.Active(isa.RV64) || off.Active(isa.AArch64) || off.Enabled() {
		t.Fatalf("zero config must be inactive")
	}
	rvOnly := Config{RV64: true, Rules: AllRules}
	if rvOnly.Active(isa.AArch64) {
		t.Fatalf("rv64-scoped config active on a64")
	}
}

// TestDownstreamBatchDelivery pins that the pass uses the downstream
// batched path when available and never delivers empty batches.
func TestDownstreamBatchDelivery(t *testing.T) {
	var c capture
	p := NewPass(allRV, isa.RV64, &c)
	p.Events([]isa.Event{
		evLoad(0x100, isa.IntReg(5), isa.IntReg(10), 0x8000, 8),
		evLoad(0x104, isa.IntReg(6), isa.IntReg(10), 0x9000, 8),
		evLoad(0x108, isa.IntReg(7), isa.IntReg(10), 0xa000, 4),
	})
	if len(c.batches) != 1 || c.batches[0] != 1 || c.singles != 0 {
		t.Fatalf("batch delivery: batches=%v singles=%d", c.batches, c.singles)
	}
	// A batch that fuses entirely into the carry delivers nothing.
	var c2 capture
	q := NewPass(allRV, isa.RV64, &c2)
	q.Events([]isa.Event{evLoad(0x100, isa.IntReg(5), isa.IntReg(10), 0x8000, 8)})
	if len(c2.evs) != 0 || len(c2.batches) != 0 {
		t.Fatalf("empty batch delivered: %v", c2.batches)
	}
}
