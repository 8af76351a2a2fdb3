package isa

import (
	"testing"
	"testing/quick"
)

func TestRegSpaces(t *testing.T) {
	for i := uint8(0); i < 32; i++ {
		r := IntReg(i)
		if !r.IsInt() || r.IsFP() {
			t.Fatalf("IntReg(%d) misclassified", i)
		}
		if r.Index() != i {
			t.Fatalf("IntReg(%d).Index() = %d", i, r.Index())
		}
	}
	for i := uint8(0); i < 32; i++ {
		r := FPReg(i)
		if r.IsInt() || !r.IsFP() {
			t.Fatalf("FPReg(%d) misclassified", i)
		}
		if r.Index() != i {
			t.Fatalf("FPReg(%d).Index() = %d", i, r.Index())
		}
	}
	if RegNZCV.IsInt() || RegNZCV.IsFP() {
		t.Fatalf("NZCV misclassified")
	}
	if int(RegNZCV) >= NumRegs {
		t.Fatalf("NZCV outside register space")
	}
}

func TestRegStrings(t *testing.T) {
	cases := map[Reg]string{
		IntReg(0):  "x0",
		IntReg(31): "x31",
		FPReg(0):   "f0",
		FPReg(12):  "f12",
		RegNZCV:    "nzcv",
	}
	for r, want := range cases {
		if got := r.String(); got != want {
			t.Errorf("Reg(%d).String() = %q, want %q", uint8(r), got, want)
		}
	}
}

func TestRegIndexRoundTrip(t *testing.T) {
	f := func(i uint8, fp bool) bool {
		i %= 32
		var r Reg
		if fp {
			r = FPReg(i)
		} else {
			r = IntReg(i)
		}
		return r.Index() == i && r.IsFP() == fp
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGroupNames(t *testing.T) {
	seen := map[string]bool{}
	for g := Group(0); g < NumGroups; g++ {
		name := g.String()
		if name == "" {
			t.Fatalf("group %d has empty name", g)
		}
		if seen[name] {
			t.Fatalf("duplicate group name %q", name)
		}
		seen[name] = true
	}
}

func TestArchString(t *testing.T) {
	if AArch64.String() != "AArch64" || RV64.String() != "RISC-V" {
		t.Fatalf("unexpected arch names: %v %v", AArch64, RV64)
	}
}

func TestEventSrcDst(t *testing.T) {
	var e Event
	e.AddSrc(IntReg(1))
	e.AddSrc(NoReg)
	e.AddSrc(FPReg(2))
	e.AddDst(NoReg)
	e.AddDst(IntReg(3))
	if e.NSrcs != 2 || e.NDsts != 1 {
		t.Fatalf("counts = %d/%d, want 2/1 (NoReg is skipped)", e.NSrcs, e.NDsts)
	}
	if e.Srcs[0] != IntReg(1) || e.Srcs[1] != FPReg(2) || e.Dsts[0] != IntReg(3) {
		t.Fatalf("wrong registers recorded: %v %v", e.Srcs, e.Dsts)
	}
}

func TestEventOverflowIgnored(t *testing.T) {
	var e Event
	for i := 0; i < 10; i++ {
		e.AddSrc(IntReg(uint8(i)))
	}
	if e.NSrcs != uint8(len(e.Srcs)) {
		t.Fatalf("NSrcs = %d, want %d", e.NSrcs, len(e.Srcs))
	}
	for i := 0; i < 10; i++ {
		e.AddDst(IntReg(uint8(i)))
	}
	if e.NDsts != uint8(len(e.Dsts)) {
		t.Fatalf("NDsts = %d, want %d", e.NDsts, len(e.Dsts))
	}
}

func TestMultiSinkOrder(t *testing.T) {
	var order []int
	mk := func(id int) Sink {
		return SinkFunc(func(*Event) { order = append(order, id) })
	}
	ms := MultiSink{mk(1), mk(2), mk(3)}
	ms.Event(&Event{})
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("sink order = %v", order)
	}
}
