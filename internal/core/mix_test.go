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

// TestBranchProfile: the mix counts branches and taken branches in
// its histogram's walk.
func TestBranchProfile(t *testing.T) {
	m := NewMix()
	// 6 plain instructions, 4 branches (3 taken).
	for i := 0; i < 6; i++ {
		m.Event(&isa.Event{PC: 0x1004, Group: isa.GroupIntSimple})
	}
	m.Event(&isa.Event{PC: 0x1008, Branch: true, Taken: true})
	m.Event(&isa.Event{PC: 0x1008, Branch: true, Taken: true})
	m.Event(&isa.Event{PC: 0x1108, Branch: true, Taken: true})
	m.Event(&isa.Event{PC: 0x1108, Branch: true, Taken: false})

	if m.Total() != 10 {
		t.Fatalf("total = %d", m.Total())
	}
	if m.Branches() != 4 {
		t.Fatalf("branches = %d", m.Branches())
	}
	if m.Density() != 0.4 {
		t.Fatalf("density = %v", m.Density())
	}
	if m.TakenRate() != 0.75 {
		t.Fatalf("taken rate = %v", m.TakenRate())
	}
}

// TestBranchProfileNoSymbols: the branch profile needs no symbol
// table; one taken branch is a density of 1, and an empty mix's taken
// rate is 0.
func TestBranchProfileNoSymbols(t *testing.T) {
	m := NewMix()
	m.Event(&isa.Event{Branch: true, Taken: true})
	if m.Density() != 1 {
		t.Fatalf("density = %v", m.Density())
	}
	if NewMix().TakenRate() != 0 {
		t.Fatal("empty taken rate should be 0")
	}
}
