package core

import (
	"testing"

	"isacmp/internal/isa"
)

func TestMixHistogram(t *testing.T) {
	m := NewMix()
	feed := func(g isa.Group, n int) {
		for i := 0; i < n; i++ {
			m.Event(&isa.Event{Group: g})
		}
	}
	feed(isa.GroupIntSimple, 50)
	feed(isa.GroupLoad, 25)
	feed(isa.GroupBranch, 15)
	feed(isa.GroupFPAdd, 10)

	if m.Total() != 100 {
		t.Fatalf("total = %d", m.Total())
	}
	if m.Count(isa.GroupLoad) != 25 {
		t.Fatalf("loads = %d", m.Count(isa.GroupLoad))
	}
	if m.Fraction(isa.GroupBranch) != 0.15 {
		t.Fatalf("branch fraction = %v", m.Fraction(isa.GroupBranch))
	}
	if m.Fraction(isa.GroupFPDiv) != 0 {
		t.Fatal("untouched group non-zero")
	}
	counts := m.Counts()
	if len(counts) != int(isa.NumGroups) {
		t.Fatalf("rows = %d", len(counts))
	}
	var sum uint64
	for _, gc := range counts {
		sum += gc.Count
	}
	if sum != 100 {
		t.Fatalf("histogram sums to %d", sum)
	}
}

func TestMixEmpty(t *testing.T) {
	m := NewMix()
	if m.Fraction(isa.GroupLoad) != 0 || m.Total() != 0 {
		t.Fatal("empty mix not zero")
	}
}

func TestBranchProfile(t *testing.T) {
	bp := NewBranchProfile()
	// 6 plain instructions, 4 branches (3 taken).
	for i := 0; i < 6; i++ {
		bp.Event(&isa.Event{PC: 0x1004, Group: isa.GroupIntSimple})
	}
	bp.Event(&isa.Event{PC: 0x1008, Branch: true, Taken: true})
	bp.Event(&isa.Event{PC: 0x1008, Branch: true, Taken: true})
	bp.Event(&isa.Event{PC: 0x1108, Branch: true, Taken: true})
	bp.Event(&isa.Event{PC: 0x1108, Branch: true, Taken: false})

	if bp.Total() != 10 {
		t.Fatalf("total = %d", bp.Total())
	}
	if bp.Branches() != 4 {
		t.Fatalf("branches = %d", bp.Branches())
	}
	if bp.Density() != 0.4 {
		t.Fatalf("density = %v", bp.Density())
	}
	if bp.TakenRate() != 0.75 {
		t.Fatalf("taken rate = %v", bp.TakenRate())
	}
}

// TestBranchProfileNoSymbols: the profile needs no symbol table; one
// taken branch is a density of 1, and an empty profile's taken rate
// is 0.
func TestBranchProfileNoSymbols(t *testing.T) {
	bp := NewBranchProfile()
	bp.Event(&isa.Event{Branch: true, Taken: true})
	if bp.Density() != 1 {
		t.Fatalf("density = %v", bp.Density())
	}
	if NewBranchProfile().TakenRate() != 0 {
		t.Fatal("empty taken rate should be 0")
	}
}
